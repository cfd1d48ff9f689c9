"""Agent network: init, forward, BPTT gradients, flattening, checkpoints.

Gradient correctness is checked against a central finite-difference oracle
built in this file: the loss is recomputed from scratch through forward()
while one flat parameter at a time is bumped by ±1e-5. Analytic and FD
values must agree within 1e-4 relative with a 1e-6 absolute floor.
"""

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from platoonrl.errors import DataError
from platoonrl.nn import (
    _WINDOW,
    _empty_records,
    AgentNet,
    ForwardRecord,
    Hidden,
    backward,
    flatten_params,
    forward,
    init_agent_net,
    load_params,
    orthogonal_init,
    param_count,
    save_params,
    set_flat_params,
    stack_nets,
    zero_hidden,
)

from reference_nn import one_agent_backward

GOLDEN = Path(__file__).parent / "golden"
OBS_DIM = 5
HIDDEN = 8
N_ACTIONS = 4
FD_EPS = 1e-5


def make_net(seed: int) -> AgentNet:
    return init_agent_net(OBS_DIM, hidden_dim=HIDDEN, rng=np.random.default_rng(seed))


def run_sequence(net, obs_seq):
    """Forward over a whole observation sequence from a zero carry."""
    hidden = zero_hidden(net.hidden_dim)
    policies, values, records = [], [], []
    for obs in obs_seq:
        policy, value, hidden, rec = forward(net, obs, hidden)
        policies.append(policy)
        values.append(value)
        records.append(rec)
    return policies, values, records


class SequenceLoss:
    """A scalar loss over per-step (policy, value) pairs plus its exact
    per-step gradients, used both to drive backward() and to evaluate the
    finite-difference quotient."""

    def __init__(self, terms):
        self.terms = terms  # one spec dict per step

    def value(self, policies, values):
        total = 0.0
        for term, p, v in zip(self.terms, policies, values):
            if term["kind"] == "linear":
                total += float(term["dp"] @ p) + term["dv"] * v
            else:
                adv, act, ret = term["adv"], term["action"], term["ret"]
                entropy = -float(np.sum(p * np.log(p)))
                total += -adv * float(np.log(p[act])) - 0.01 * entropy
                total += (ret - v) ** 2
        return total

    def grads(self, policies, values):
        out = []
        for term, p, v in zip(self.terms, policies, values):
            if term["kind"] == "linear":
                out.append((term["dp"].copy(), term["dv"]))
            else:
                adv, act, ret = term["adv"], term["action"], term["ret"]
                dp = 0.01 * (np.log(p) + 1.0)
                dp[act] -= adv / p[act]
                out.append((dp, -2.0 * (ret - v)))
        return out


def random_case(seed: int):
    """One randomized gradient-check instance: a net (with trunk and head
    scales perturbed away from the near-uniform init), an observation
    sequence, and a loss."""
    rng = np.random.default_rng(seed)
    net = make_net(seed)
    net.actor_w *= rng.uniform(1.0, 40.0)
    net.actor_b += rng.normal(scale=0.3, size=N_ACTIONS)
    net.critic_w *= rng.uniform(1.0, 40.0)
    n_steps = int(rng.integers(1, 9))
    obs_seq = rng.normal(scale=rng.uniform(0.3, 3.0), size=(n_steps, OBS_DIM))
    terms = []
    for _ in range(n_steps):
        if rng.random() < 0.5:
            terms.append({
                "kind": "linear",
                "dp": rng.normal(size=N_ACTIONS),
                "dv": float(rng.normal()),
            })
        else:
            terms.append({
                "kind": "rl",
                "adv": float(rng.normal()),
                "action": int(rng.integers(N_ACTIONS)),
                "ret": float(rng.normal()),
            })
    return net, obs_seq, SequenceLoss(terms)


def check_gradients(net, obs_seq, loss, coords):
    """Assert analytic BPTT matches central differences on the given flat
    coordinates."""
    policies, values, records = run_sequence(net, obs_seq)
    d_policy, d_value = zip(*loss.grads(policies, values))
    analytic = one_agent_backward(net, records, np.array(d_policy), np.array(d_value))
    base = flatten_params(net).copy()
    try:
        for k in coords:
            for sign, slot in ((1.0, 0), (-1.0, 1)):
                bumped = base.copy()
                bumped[k] += sign * FD_EPS
                set_flat_params(net, bumped)
                p, v, _ = run_sequence(net, obs_seq)
                if slot == 0:
                    hi = loss.value(p, v)
                else:
                    lo = loss.value(p, v)
            fd = (hi - lo) / (2.0 * FD_EPS)
            tol = max(1e-6, 1e-4 * max(abs(fd), abs(analytic[k])))
            assert abs(analytic[k] - fd) <= tol, (
                f"coord {k}: analytic {analytic[k]:.10g} vs fd {fd:.10g}"
            )
    finally:
        set_flat_params(net, base)


class TestOrthogonalInit:
    def test_square_is_orthogonal(self):
        q = orthogonal_init((64, 64), 1.0, np.random.default_rng(0))
        err = np.max(np.abs(q.T @ q - np.eye(64)))
        assert err <= 1e-6, f"max deviation {err}"

    def test_tall_columns_orthonormal(self):
        q = orthogonal_init((64, 8), 1.0, np.random.default_rng(1))
        assert np.max(np.abs(q.T @ q - np.eye(8))) <= 1e-6

    def test_wide_rows_orthonormal(self):
        q = orthogonal_init((8, 64), 1.0, np.random.default_rng(2))
        assert np.max(np.abs(q @ q.T - np.eye(8))) <= 1e-6

    def test_gain_scales_quadratically(self):
        q = orthogonal_init((16, 16), 0.5, np.random.default_rng(3))
        assert np.max(np.abs(q.T @ q - 0.25 * np.eye(16))) <= 1e-6

    def test_one_by_one(self):
        q = orthogonal_init((1, 1), 2.0, np.random.default_rng(4))
        assert abs(q[0, 0]) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_under_seed(self):
        a = orthogonal_init((8, 8), 1.0, np.random.default_rng(7))
        b = orthogonal_init((8, 8), 1.0, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = orthogonal_init((8, 8), 1.0, np.random.default_rng(7))
        b = orthogonal_init((8, 8), 1.0, np.random.default_rng(8))
        assert not np.array_equal(a, b)


class TestForward:
    def test_zero_parameters_give_uniform_policy(self):
        net = make_net(0)
        set_flat_params(net, np.zeros(param_count(net)))
        policy, value, _, _ = forward(net, np.ones(OBS_DIM), zero_hidden(HIDDEN))
        assert np.allclose(policy, 0.25, atol=1e-15)
        assert value == 0.0

    def test_policy_is_distribution(self):
        for seed in range(10):
            net, obs_seq, _ = random_case(seed)
            policies, _, _ = run_sequence(net, obs_seq)
            for p in policies:
                assert abs(float(np.sum(p)) - 1.0) <= 1e-9
                assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_logit_shift_invariance(self):
        net = make_net(3)
        obs = np.linspace(-1.0, 1.0, OBS_DIM)
        p0, v0, _, _ = forward(net, obs, zero_hidden(HIDDEN))
        net.actor_b += 3.7
        p1, v1, _, _ = forward(net, obs, zero_hidden(HIDDEN))
        assert np.max(np.abs(p1 - p0)) <= 1e-9
        assert v1 == v0

    def test_pure_in_hidden_carry(self):
        net = make_net(5)
        obs = np.full(OBS_DIM, 0.2)
        hidden = zero_hidden(HIDDEN)
        out1 = forward(net, obs, hidden)
        out2 = forward(net, obs, hidden)
        assert np.array_equal(out1[0], out2[0])
        assert out1[1] == out2[1]
        assert np.array_equal(out1[2].h, out2[2].h)
        assert np.array_equal(hidden.h, np.zeros(HIDDEN)), "carry was mutated"

    def test_hidden_advances(self):
        net = make_net(6)
        obs = np.full(OBS_DIM, 0.4)
        _, _, hidden, _ = forward(net, obs, zero_hidden(HIDDEN))
        assert np.any(hidden.h != 0.0)
        assert np.any(hidden.c != 0.0)

    def test_rejects_wrong_obs_shape(self):
        net = make_net(0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(OBS_DIM + 1), zero_hidden(HIDDEN))

    def test_non_finite_parameters_raise(self):
        net = make_net(0)
        net.input_w[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            forward(net, np.zeros(OBS_DIM), zero_hidden(HIDDEN))

    @pytest.mark.parametrize("n_agents", [None, 3])
    def test_fresh_record_shares_no_memory_with_the_inputs(self, n_agents):
        # Without `out`, forward copies obs and the carry into a record of
        # its own, as it copies them into a given one.
        net = make_net(7) if n_agents is None else stacked(n_agents, HIDDEN, seed=7)
        lead = () if n_agents is None else (n_agents,)
        rng = np.random.default_rng(0)
        obs = rng.normal(size=lead + (OBS_DIM,))
        hidden = Hidden(rng.normal(size=lead + (HIDDEN,)), rng.normal(size=lead + (HIDDEN,)))
        record = forward(net, obs, hidden)[3]
        for name, a in zip(ForwardRecord._fields, record):
            for given in (obs, hidden.h, hidden.c):
                assert not np.shares_memory(a, given), name
        for a, given in ((record.obs, obs), (record.h_prev, hidden.h), (record.c_prev, hidden.c)):
            assert np.array_equal(a, given)


class TestEmptyRecords:
    @pytest.mark.parametrize("n_agents", [None, 1, 4])
    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_buffers(self, n_agents, n_steps):
        net = make_net(0) if n_agents is None else stacked(n_agents, HIDDEN, seed=0)
        lead = () if n_agents is None else (n_agents,)
        records = _empty_records(n_steps, net)
        widths = {"obs": OBS_DIM, "policy": N_ACTIONS}
        for name, a in zip(ForwardRecord._fields, records):
            assert a.shape == (n_steps,) + lead + (widths.get(name, HIDDEN),), name
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable, name
        # Step t's h_new is step t + 1's h_prev in place; no other two
        # fields share memory.
        assert all(np.shares_memory(records.h_new[t], records.h_prev[t + 1])
                   for t in range(n_steps - 1))
        assert not np.shares_memory(records.h_prev[0], records.h_new)
        assert not np.shares_memory(records.h_new[-1], records.h_prev)
        pairs = [(a, b) for a in ForwardRecord._fields for b in ForwardRecord._fields if a < b]
        for a, b in pairs:
            if {a, b} != {"h_prev", "h_new"}:
                assert not np.shares_memory(getattr(records, a), getattr(records, b)), (a, b)
        # A row of the buffers is a record forward() writes into.
        rows = ForwardRecord(*(a[0] for a in records))
        obs, zeros = np.ones(lead + (OBS_DIM,)), np.zeros(lead + (HIDDEN,))
        want = forward(net, obs, Hidden(zeros, zeros))
        got = forward(net, obs, Hidden(zeros, zeros), rows)
        for name, g, w in zip(ForwardRecord._fields, got[3], want[3]):
            assert np.array_equal(g, w), name


def stacked(n_agents, hidden_dim, seed):
    """An n_agents stack with heads scaled up, so policies are far from
    uniform."""
    rng = np.random.default_rng(seed)
    net = stack_nets(
        [init_agent_net(OBS_DIM, hidden_dim, N_ACTIONS, rng) for _ in range(n_agents)]
    )
    net.actor_w *= 40.0
    net.critic_w *= 40.0
    return net


def snapshot(step):
    """A copy of every array one forward() call returned."""
    policy, value, hidden, record = step
    return [np.copy(a) for a in (policy, value, *hidden, *record)]


class TestForwardScratch:
    """forward() computes into scratch bound to each net. Calls that share
    a net, or alternate between nets of other sizes, must give the bits
    each gives alone, and no call may change what an earlier one
    returned."""

    @pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
    @pytest.mark.parametrize("two_nets", [False, True], ids=["one-net", "two-nets"])
    def test_interleaved_calls_give_the_bits_of_lone_calls(self, two_nets, with_out):
        a = stacked(4, 16, seed=1)
        nets = [a, stacked(3, 8, seed=2) if two_nets else a]
        rng = np.random.default_rng(3)
        n_steps = 12
        # Two episodes, one per entry of nets, each with its own carry.
        obs = [
            [rng.normal(scale=3.0, size=(len(net.params), OBS_DIM)) for _ in range(n_steps)]
            for net in nets
        ]

        def start(net):
            zeros = np.zeros((len(net.params), net.hidden_dim))
            return Hidden(zeros, zeros)

        def out_for(net):
            if not with_out:
                return None
            n, hd = len(net.params), net.hidden_dim
            widths = {"obs": OBS_DIM, "policy": N_ACTIONS}
            return ForwardRecord(
                *(np.full((n, widths.get(f, hd)), np.nan) for f in ForwardRecord._fields)
            )

        # Each episode alone, on its own copy of its net.
        alone = []
        for net, episode in zip(nets, obs):
            copy = AgentNet(OBS_DIM, net.hidden_dim, N_ACTIONS, params=net.params.copy())
            hidden, steps = start(copy), []
            for o in episode:
                steps.append(forward(copy, o, hidden, out_for(copy)))
                hidden = steps[-1][2]
            alone.append([snapshot(step) for step in steps])

        # The two episodes a step at a time, alternating.
        hiddens = [start(net) for net in nets]
        returned, taken = [[], []], [[], []]
        for t in range(n_steps):
            for e, net in enumerate(nets):
                step = forward(net, obs[e][t], hiddens[e], out_for(net))
                hiddens[e] = step[2]
                returned[e].append(step)
                taken[e].append(snapshot(step))
        for e in range(2):
            for t in range(n_steps):
                # Each array as the lone call gave it, as this call gave
                # it, and as it reads after every later call.
                now = snapshot(returned[e][t])
                for want, got, later in zip(alone[e][t], taken[e][t], now):
                    assert got.shape == want.shape and np.array_equal(got, want), (e, t)
                    assert np.array_equal(later, got), (e, t)


class TestBackward:
    def test_zero_loss_grads_give_zero_bundle(self):
        net = make_net(1)
        _, _, records = run_sequence(net, np.ones((3, OBS_DIM)))
        grads = one_agent_backward(net, records, np.zeros((3, N_ACTIONS)), np.zeros(3))
        assert np.array_equal(grads, np.zeros(param_count(net)))

    def test_rejects_a_single_agent_net(self):
        # backward takes an (n_agents, P) stack only; one_agent_backward
        # stacks a (P,) net and its records as one agent
        net = make_net(1)
        _, _, records = run_sequence(net, np.ones((3, OBS_DIM)))
        with pytest.raises(ValueError, match="stack_nets"):
            backward(net, records, np.zeros((3, N_ACTIONS)), np.zeros(3))

    def test_rejects_length_mismatch(self):
        net = make_net(1)
        _, _, records = run_sequence(net, np.ones((3, OBS_DIM)))
        with pytest.raises(ValueError):
            one_agent_backward(net, records, np.zeros((2, N_ACTIONS)), np.zeros(2))

    def test_one_step_critic_only_matches_fd(self):
        net = make_net(11)
        net.critic_w *= 30.0
        obs_seq = np.random.default_rng(11).normal(size=(1, OBS_DIM))
        loss = SequenceLoss([{"kind": "linear", "dp": np.zeros(N_ACTIONS), "dv": 1.0}])
        check_gradients(net, obs_seq, loss, range(param_count(net)))

    def test_eight_step_sequence_matches_fd(self):
        net, obs_seq, loss = random_case(12)
        obs_seq = np.random.default_rng(12).normal(size=(8, OBS_DIM))
        loss = SequenceLoss(loss.terms[:1] * 8)
        coords = np.random.default_rng(12).choice(
            param_count(net), size=60, replace=False
        )
        check_gradients(net, obs_seq, loss, coords)

    def test_randomized_instances_match_fd(self):
        # 40 randomized nets/sequences/losses, 12 probed coordinates each
        for seed in range(100, 140):
            net, obs_seq, loss = random_case(seed)
            coords = np.random.default_rng(seed).choice(
                param_count(net), size=12, replace=False
            )
            check_gradients(net, obs_seq, loss, coords)

    def test_gradients_sum_over_steps(self):
        # the two-step gradient of step-wise losses is the sum of the
        # one-step gradients when the second step's loss is zero
        net = make_net(21)
        obs = np.random.default_rng(21).normal(size=(2, OBS_DIM))
        dp = np.array([0.5, -0.25, 0.0, 1.0])
        _, _, records = run_sequence(net, obs)
        only_first = one_agent_backward(
            net, records, np.array([dp, np.zeros(N_ACTIONS)]), np.array([0.5, 0.0])
        )
        _, _, one_rec = run_sequence(net, obs[:1])
        single = one_agent_backward(net, one_rec, dp[None, :], np.array([0.5]))
        assert np.allclose(only_first, single, atol=1e-12)


def episode_inputs(net, n_steps, seed):
    """backward()'s inputs for an n_steps episode of `net` on random
    observations: the tape and random loss seeds."""
    rng = np.random.default_rng(seed)
    width = (len(net.params), net.hidden_dim)
    hidden = Hidden(np.zeros(width), np.zeros(width))
    records = []
    for _ in range(n_steps):
        _, _, hidden, record = forward(net, rng.normal(size=(len(net.params), OBS_DIM)), hidden)
        records.append(record)
    tape = ForwardRecord(*map(np.array, zip(*records)))
    return tape, rng.normal(size=tape.policy.shape), rng.normal(size=tape.policy.shape[:2])


def threads_after(count, timeout=5.0):
    """threading.active_count() once it is down to count, or at the
    timeout."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


class TestBackwardHelper:
    """backward() adds every window's trunk products but the first on one
    helper thread per call, which it joins before it returns."""

    # One window, whose products the calling thread adds itself; two, where
    # the helper's error is raised from the final wait; three, where it is
    # raised before the third window reuses the first one's buffer.
    @pytest.mark.parametrize("n_windows", [1, 2, 3])
    @pytest.mark.parametrize("defect", ["wide", "short"])
    def test_helper_error_propagates_and_no_thread_outlives_the_call(self, defect, n_windows):
        net = stacked(3, 8, seed=4)
        tape, d_policy, d_value = episode_inputs(net, n_windows * _WINDOW - 7, seed=5)
        # Only the trunk products read the observations. One entry more
        # than input_w takes fails every window's input-layer product; one
        # step fewer than the episode fails only the last window's, which
        # the helper adds unless it is the only window.
        if defect == "wide":
            bad = tape._replace(obs=np.concatenate([tape.obs, tape.obs[..., :1]], axis=-1))
        else:
            bad = tape._replace(obs=tape.obs[:-1])
        before = threading.active_count()
        with pytest.raises(ValueError, match="matmul") as raised:
            backward(net, bad, d_policy, d_value)
        assert raised.type is ValueError
        assert threads_after(before) == before
        backward(net, tape, d_policy, d_value)
        assert threads_after(before) == before

    def test_concurrent_calls_give_the_bits_of_lone_calls(self):
        nets = [stacked(4, 16, seed=6), stacked(3, 8, seed=7)]
        inputs = [episode_inputs(nets[0], 350, seed=0), episode_inputs(nets[1], 230, seed=1)]
        alone = [backward(net, *args) for net, args in zip(nets, inputs)]
        results = [[], []]

        def run(i):
            for _ in range(3):
                results[i].append(backward(nets[i], *inputs[i]))

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(alone, results):
            assert len(got) == 3
            for grads in got:
                for g, w in zip(grads, want):
                    assert np.array_equal(g, w)


class TestFlattening:
    def test_param_count(self):
        net = make_net(0)
        # 8*5 + 8 + 32*8 + 32*8 + 32 + 4*8 + 4 + 1*8 + 1
        assert param_count(net) == 637
        assert flatten_params(net).shape == (637,)

    def test_layout_order(self):
        net = make_net(0)
        fills = {
            "input_w": 1.0, "input_b": 2.0, "lstm_wx": 3.0, "lstm_wh": 4.0,
            "lstm_b": 5.0, "actor_w": 6.0, "actor_b": 7.0, "critic_w": 8.0,
            "critic_b": 9.0,
        }
        net.input_w[:] = fills["input_w"]
        net.input_b[:] = fills["input_b"]
        net.lstm_wx[:] = fills["lstm_wx"]
        net.lstm_wh[:] = fills["lstm_wh"]
        net.lstm_b[:] = fills["lstm_b"]
        net.actor_w[:] = fills["actor_w"]
        net.actor_b[:] = fills["actor_b"]
        net.critic_w[:] = fills["critic_w"]
        net.critic_b[:] = fills["critic_b"]
        sizes = [40, 8, 256, 256, 32, 32, 4, 8, 1]
        expected = np.concatenate([
            np.full(n, v) for n, v in zip(sizes, fills.values())
        ])
        assert np.array_equal(flatten_params(net), expected)

    def test_round_trip_identity(self):
        src = make_net(30)
        dst = make_net(31)
        set_flat_params(dst, flatten_params(src))
        assert np.array_equal(flatten_params(dst), flatten_params(src))
        assert np.array_equal(dst.lstm_wh, src.lstm_wh)

    def test_views_share_params_buffer(self):
        net = make_net(0)
        obs = np.linspace(-1.0, 1.0, OBS_DIM)
        p0, _, _, _ = forward(net, obs, zero_hidden(HIDDEN))
        # actor_w starts at 40 + 8 + 256 + 256 + 32 = 592
        before = flatten_params(net)
        net.params[592] += 5.0
        assert net.actor_w[0, 0] == before[592] + 5.0
        p1, _, _, _ = forward(net, obs, zero_hidden(HIDDEN))
        assert not np.array_equal(p0, p1)
        net.actor_w[3, 7] = -2.5
        assert net.params[592 + 3 * HIDDEN + 7] == -2.5
        assert not np.shares_memory(flatten_params(net), net.params)

    def test_set_rejects_wrong_length(self):
        net = make_net(0)
        with pytest.raises(ValueError):
            set_flat_params(net, np.zeros(10))


class TestCheckpointIo:
    def test_save_load_round_trip(self, tmp_path):
        net = make_net(40)
        path = tmp_path / "agent0.npz"
        save_params(net, path)
        loaded = load_params(path)
        assert loaded.obs_dim == OBS_DIM
        assert loaded.hidden_dim == HIDDEN
        assert loaded.n_actions == N_ACTIONS
        assert np.array_equal(flatten_params(loaded), flatten_params(net))

    def test_loaded_net_forwards_identically(self, tmp_path):
        net = make_net(41)
        path = tmp_path / "agent0.npz"
        save_params(net, path)
        loaded = load_params(path)
        obs = np.linspace(-0.5, 0.5, OBS_DIM)
        p0, v0, _, _ = forward(net, obs, zero_hidden(HIDDEN))
        p1, v1, _, _ = forward(loaded, obs, zero_hidden(HIDDEN))
        assert np.array_equal(p0, p1) and v0 == v1

    def test_loads_older_checkpoint_format(self):
        # agent_h8.npz was written by the earlier per-layer network (obs 15,
        # hidden 8, 4 actions) together with its forward output for one
        # observation from a zero carry.
        path = GOLDEN / "agent_h8.npz"
        net = load_params(path)
        with np.load(path) as saved:
            assert np.array_equal(flatten_params(net), saved["flat"])
        with np.load(GOLDEN / "agent_h8_forward.npz") as ref:
            policy, value, _, _ = forward(net, ref["obs"], zero_hidden(8))
            assert np.max(np.abs(policy - ref["policy"])) <= 1e-12
            assert abs(value - float(ref["value"])) <= 1e-12

    @pytest.mark.parametrize(
        "defect",
        ["short", "long", "no flat", "no n_actions",
         "vector obs_dim", "text obs_dim", "empty hidden_dim", "float obs_dim",
         "complex flat", "text flat", "int flat", "bool flat"],
    )
    def test_bad_checkpoint_raises_data_error(self, defect, tmp_path):
        net = make_net(42)
        entries = {
            "flat": flatten_params(net),
            "obs_dim": OBS_DIM,
            "hidden_dim": HIDDEN,
            "n_actions": N_ACTIONS,
        }
        if defect == "short":
            entries["flat"] = entries["flat"][:-1]
        elif defect == "long":
            entries["flat"] = np.append(entries["flat"], 0.0)
        elif defect == "vector obs_dim":
            entries["obs_dim"] = [OBS_DIM, OBS_DIM]
        elif defect == "text obs_dim":
            entries["obs_dim"] = str(OBS_DIM)
        elif defect == "empty hidden_dim":
            entries["hidden_dim"] = np.array([], dtype=int)
        elif defect == "float obs_dim":
            # int() would truncate it to a valid dimension.
            entries["obs_dim"] = OBS_DIM + 0.9
        elif defect in ("complex flat", "text flat", "int flat", "bool flat"):
            # Each converts to float64 without an error, a complex vector
            # losing its imaginary parts and a text one parsed as numbers.
            kind = {"complex": complex, "text": str, "int": int, "bool": bool}
            entries["flat"] = entries["flat"].astype(kind[defect.split()[0]])
        else:
            del entries[defect.removeprefix("no ")]
        path = tmp_path / "agent0.npz"
        np.savez(path, **entries)
        with pytest.raises(DataError, match="agent0.npz"):
            load_params(path)

    def test_truncated_checkpoint_raises_data_error(self, tmp_path):
        path = tmp_path / "agent0.npz"
        save_params(make_net(43), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="agent0.npz"):
            load_params(path)

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        old = make_net(44)
        path = tmp_path / "agent0.npz"
        save_params(old, path)

        def fail_midway(file, **arrays):
            Path(file).write_bytes(b"PK\x03\x04 half a checkpoint")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_params(make_net(45), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["agent0.npz"]
        assert np.array_equal(flatten_params(load_params(path)), flatten_params(old))
