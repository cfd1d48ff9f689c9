"""Weight mixing protocols, ternary quantizer, compressed optimizer, bit accounting.

The qsgd trajectory facts are frozen from a brute-force oracle over the
documented recurrence (p = grad + residual; q = ternary(p); w -= lr * q;
residual = p - q), run in plain float arithmetic. Steps are 1-based: step t
is the state after the t-th update.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from platoonrl.consensus import (
    ConsensusConfig,
    apply_consensus,
    bdc_round,
    comm_bits_per_round,
    dcea_round,
    qsgd_step,
    ternary_quantize,
    wac_round,
)

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def vectors(n_agents, dim=3):
    return st.lists(
        st.lists(finite_floats, min_size=dim, max_size=dim),
        min_size=n_agents,
        max_size=n_agents,
    ).map(lambda rows: [np.array(r) for r in rows])


def spread(weights):
    stack = np.stack(weights)
    return float(np.max(stack.max(axis=0) - stack.min(axis=0)))


class TestTernaryQuantize:
    def test_basic_signs(self):
        out = ternary_quantize(np.array([0.5, -0.2, 0.0]))
        assert np.array_equal(out, [1.0, -1.0, 0.0]), f"got {out}"

    def test_dead_zone_swallows_small_values(self):
        assert ternary_quantize(np.array([1e-9]), tau=1e-8)[0] == 0.0

    def test_dead_zone_boundary_maps_to_zero(self):
        # the zero band is closed: |x| == tau is not transmitted
        out = ternary_quantize(np.array([0.5, -0.5]), tau=0.5)
        assert np.array_equal(out, [0.0, 0.0]), f"got {out}"

    def test_preserves_shape(self):
        out = ternary_quantize(np.arange(6.0).reshape(2, 3) - 2.5)
        assert out.shape == (2, 3)

    @given(xs=st.lists(finite_floats, min_size=1, max_size=16))
    def test_codebook(self, xs):
        out = ternary_quantize(np.array(xs))
        assert set(np.unique(out)) <= {-1.0, 0.0, 1.0}

    @given(xs=st.lists(finite_floats, min_size=1, max_size=16))
    def test_idempotent(self, xs):
        q = ternary_quantize(np.array(xs))
        assert np.array_equal(ternary_quantize(q), q)

    @given(xs=st.lists(finite_floats, min_size=1, max_size=16),
           tau=st.floats(min_value=0.0, max_value=1.0))
    def test_odd_symmetry(self, xs, tau):
        x = np.array(xs)
        assert np.array_equal(
            ternary_quantize(-x, tau=tau), -ternary_quantize(x, tau=tau)
        )


class TestLineGraph:
    """The one topology: the Laplacian L read off a dcea round at eps = 1
    on unit vectors, W' = (I - L) W, and the directed edge count off the
    bit accounting."""

    def test_line_of_four(self):
        laplacian = np.eye(4) - dcea_round(np.eye(4), eps=1.0)
        assert np.array_equal(laplacian, [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ])
        assert comm_bits_per_round("bdc", 1, 4) == 2 * 6

    def test_single_agent_line(self):
        assert np.array_equal(dcea_round(np.eye(1), eps=1.0), np.eye(1))
        assert comm_bits_per_round("bdc", 1, 1) == 0


class TestBdcRound:
    def test_path_example(self):
        # middle agent 0.5 with neighbors -0.2 and 0.8, eps = 0.01:
        # signs are -1 and +1 versus its own +1, so it moves by
        # 0.01 * ((-1 - 1) + (1 - 1)) = -0.02
        ws = [np.array([-0.2]), np.array([0.5]), np.array([0.8])]
        out = bdc_round(ws, eps=0.01)
        assert out[1][0] == pytest.approx(0.48, abs=1e-12)
        assert out[0][0] == pytest.approx(-0.18, abs=1e-12)
        assert out[2][0] == pytest.approx(0.8, abs=1e-12)

    def test_shared_sign_pattern_is_fixed_point(self):
        ws = [np.array([0.3, -1.0]), np.array([2.0, -0.1]), np.array([0.7, -4.0])]
        out = bdc_round(ws, eps=0.1)
        for w, o in zip(ws, out):
            assert np.array_equal(w, o), f"moved from {w} to {o}"

    def test_wide_dead_zone_is_identity(self):
        ws = [np.array([0.3]), np.array([-0.4])]
        out = bdc_round(ws, eps=0.1, tau=0.5)
        assert out[0][0] == 0.3 and out[1][0] == -0.4

    @given(ws=vectors(4))
    def test_step_bounded_by_degree(self, ws):
        eps = 0.05
        out = bdc_round(ws, eps=eps)
        for i, (w, o) in enumerate(zip(ws, out)):
            bound = 2.0 * eps * (1 if i in (0, 3) else 2)
            biggest = np.max(np.abs(o - w))
            assert biggest <= bound + 1e-12, f"agent {i} moved {biggest} > {bound}"

    @given(ws=vectors(4))
    def test_inputs_not_mutated(self, ws):
        before = [w.copy() for w in ws]
        bdc_round(ws, eps=0.1)
        for b, w in zip(before, ws):
            assert np.array_equal(b, w)

    @given(ws=vectors(5))
    def test_relabel_symmetry(self, ws):
        # a synchronous round commutes with reversing the path's labels
        out = bdc_round(ws, eps=0.07)
        flipped = bdc_round(ws[::-1], eps=0.07)[::-1]
        for o, f in zip(out, flipped):
            assert np.array_equal(o, f)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            bdc_round([np.zeros(3), np.zeros(4)], eps=0.1)


class TestWacRound:
    def test_path_example(self):
        ws = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        out = wac_round(ws)
        assert out[0][0] == pytest.approx(0.5, abs=1e-15)
        assert out[1][0] == pytest.approx(1.0, abs=1e-15)
        assert out[2][0] == pytest.approx(1.5, abs=1e-15)

    def test_pair_averages_exactly(self):
        out = wac_round([np.array([0.0]), np.array([1.0])])
        assert out[0][0] == 0.5 and out[1][0] == 0.5

    def test_identical_weights_unchanged(self):
        ws = [np.array([1.5, -2.0])] * 3
        out = wac_round(ws)
        for o in out:
            assert np.array_equal(o, ws[0])

    @given(ws=vectors(4))
    def test_spread_never_grows(self, ws):
        out = wac_round(ws)
        assert spread(out) <= spread(ws) + 1e-12

    def test_path_converges_within_500_rounds(self):
        ws = [np.array([0.0]), np.array([1.0]), np.array([0.25]), np.array([0.75])]
        for _ in range(500):
            ws = wac_round(ws)
        assert spread(ws) <= 1e-3, f"spread still {spread(ws)}"

    def test_single_agent_identity(self):
        out = wac_round([np.array([3.0])])
        assert out[0][0] == 3.0


class TestDceaRound:
    def test_pair_example(self):
        out = dcea_round([np.array([0.0]), np.array([1.0])], eps=0.1)
        assert out[0][0] == pytest.approx(0.1, abs=1e-15)
        assert out[1][0] == pytest.approx(0.9, abs=1e-15)

    def test_identical_weights_unchanged(self):
        ws = [np.array([1.5, -2.0])] * 3
        out = dcea_round(ws, eps=0.3)
        for o in out:
            assert np.array_equal(o, ws[0])

    @given(ws=vectors(4), eps=st.floats(min_value=0.01, max_value=0.5))
    def test_mean_conserved(self, ws, eps):
        # pairwise exchanges are antisymmetric, so the average is invariant
        before = np.mean(np.stack(ws), axis=0)
        after = np.mean(np.stack(dcea_round(ws, eps=eps)), axis=0)
        assert np.max(np.abs(after - before)) <= 1e-12

    @given(ws=vectors(4), eps=st.floats(min_value=0.01, max_value=0.5))
    def test_spread_never_grows(self, ws, eps):
        # on a path the max degree is 2, so eps <= 0.5 keeps the mixing
        # matrix a convex combination
        out = dcea_round(ws, eps=eps)
        assert spread(out) <= spread(ws) + 1e-12

    def test_path_converges_within_500_rounds(self):
        ws = [np.array([0.0]), np.array([1.0]), np.array([0.25]), np.array([0.75])]
        for _ in range(500):
            ws = dcea_round(ws, eps=0.25)
        assert spread(ws) <= 1e-3, f"spread still {spread(ws)}"


class TestApplyConsensus:
    def test_dispatch_matches_direct_calls(self):
        ws = [np.array([0.2, -0.4]), np.array([1.0, 0.3]), np.array([-0.5, 0.0])]
        for direct, out in [
            (bdc_round(ws, eps=0.05, tau=0.01),
             apply_consensus("bdc", ws, eps=0.05, tau=0.01)),
            (wac_round(ws), apply_consensus("wac", ws, eps=0.05)),
            (dcea_round(ws, eps=0.05), apply_consensus("dcea", ws, eps=0.05)),
        ]:
            for d, o in zip(direct, out):
                assert np.array_equal(d, o)

    def test_none_returns_independent_copies(self):
        ws = [np.array([1.0]), np.array([2.0])]
        out = apply_consensus("none", ws, eps=0.1)
        out[0][0] = 99.0
        assert ws[0][0] == 1.0

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            apply_consensus("gossip", [np.zeros(2)] * 2, eps=0.1)


class TestQsgdStep:
    def test_zero_gradient_is_identity(self):
        w, res = qsgd_step(np.array([1.0, -2.0]), np.zeros(2), np.zeros(2), lr=0.1)
        assert np.array_equal(w, [1.0, -2.0])
        assert np.array_equal(res, [0.0, 0.0])

    def test_single_step_accounting(self):
        # p = 0.4 -> q = 1, so w drops by lr and 0.4 - 1 = -0.6 is carried
        w, res = qsgd_step(np.array([0.0]), np.array([0.4]), np.array([0.0]), lr=0.1)
        assert w[0] == pytest.approx(-0.1, abs=1e-15)
        assert res[0] == pytest.approx(-0.6, abs=1e-15)

    @given(ws=st.lists(finite_floats, min_size=1, max_size=8),
           gs=st.lists(finite_floats, min_size=8, max_size=8),
           rs=st.lists(finite_floats, min_size=8, max_size=8))
    def test_matches_recurrence(self, ws, gs, rs):
        n = len(ws)
        w0 = np.array(ws)
        g = np.array(gs[:n])
        r0 = np.array(rs[:n])
        w1, r1 = qsgd_step(w0, g, r0, lr=0.05)
        p = g + r0
        q = ternary_quantize(p)
        assert np.array_equal(w1, w0 - 0.05 * q)
        assert np.array_equal(r1, p - q)

    def test_quadratic_descent_trajectory(self):
        # minimize 0.5 * w^2 from w0 = 1 with lr = 0.1: the carried residual
        # causes an overshoot, and the iterate only stays inside |w| <= 0.2
        # from step 16 on (it reads 0.3 at step 15). Oracle recurrence in
        # plain floats, 1-based steps, band edge tolerated at 1e-12.
        w = np.array([1.0])
        res = np.zeros(1)
        oracle_w, oracle_r = 1.0, 0.0
        inside = []
        for _ in range(200):
            w, res = qsgd_step(w, w.copy(), res, lr=0.1)
            p = oracle_w + oracle_r
            q = (p > 0.0) - (p < 0.0)
            oracle_w -= 0.1 * q
            oracle_r = p - q
            assert w[0] == oracle_w, f"diverged from oracle: {w[0]} vs {oracle_w}"
            assert res[0] == oracle_r
            inside.append(abs(w[0]) <= 0.2 + 1e-12)
        settle = next(t for t in range(len(inside)) if all(inside[t:])) + 1
        assert settle == 16, f"settled at step {settle}"
        assert not inside[14], "step 15 should still overshoot"

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            qsgd_step(np.zeros(2), np.zeros(3), np.zeros(2), lr=0.1)

    def test_rejects_non_positive_lr(self):
        with pytest.raises(ValueError):
            qsgd_step(np.zeros(2), np.zeros(2), np.zeros(2), lr=0.0)


class TestCommBits:
    def test_ternary_pair(self):
        assert comm_bits_per_round("bdc", 100, 2) == 400

    def test_dense_pair(self):
        assert comm_bits_per_round("wac", 100, 2) == 6400

    def test_dcea_matches_wac(self):
        assert comm_bits_per_round("dcea", 100, 2) == 6400

    def test_none_is_free(self):
        assert comm_bits_per_round("none", 100, 2) == 0

    @given(protocol=st.sampled_from(["bdc", "wac", "dcea", "none"]),
           n_params=st.integers(min_value=0, max_value=100000),
           n_agents=st.integers(min_value=1, max_value=64))
    def test_line_graph_edge_count(self, protocol, n_params, n_agents):
        # the n-agent line graph has 2 (n - 1) directed edges
        bits = {"bdc": 2, "wac": 32, "dcea": 32, "none": 0}[protocol]
        got = comm_bits_per_round(protocol, n_params, n_agents)
        assert got == bits * n_params * 2 * (n_agents - 1)

    @given(n_params=st.integers(min_value=0, max_value=10000),
           n_agents=st.integers(min_value=1, max_value=16))
    def test_ternary_is_sixteenth_of_dense(self, n_params, n_agents):
        dense = comm_bits_per_round("wac", n_params, n_agents)
        assert comm_bits_per_round("bdc", n_params, n_agents) * 16 == dense

    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            comm_bits_per_round("bdc", -1, 2)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            comm_bits_per_round("gossip", 10, 2)

    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError):
            comm_bits_per_round("bdc", 10, 0)


class TestConsensusConfig:
    def test_defaults(self):
        cfg = ConsensusConfig()
        assert cfg.protocol == "bdc"
        assert cfg.eps == 0.01
        assert cfg.tau == 0.0
        assert cfg.period == 1

    def test_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            ConsensusConfig(protocol="gossip")

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            ConsensusConfig(eps=0.0)
        with pytest.raises(ValueError):
            ConsensusConfig(eps=0.6)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            ConsensusConfig(tau=-0.1)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            ConsensusConfig(period=0)
