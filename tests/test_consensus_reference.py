"""Consensus rounds as line-graph products against the per-agent loops.

bdc multiplies the Laplacian by ternary vectors, whose sums of small
integers are exact, so it must be bit-equal to the loop. wac and dcea sum
real-valued neighbor vectors in another order than the loops, so they must
agree within 1e-14 of the largest weight magnitude. The one-pass ternary
quantizer must be bit-equal to the two-`where` form it replaced.
"""

import numpy as np
import pytest

from platoonrl.consensus import bdc_round, dcea_round, ternary_quantize, wac_round

import reference_consensus as ref

N_CASES = 300


@pytest.mark.parametrize("case", range(N_CASES))
def test_rounds_match_per_agent_loops(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(1, 65))
    neighbors = ref.line_neighbors(n)
    scale = 10.0 ** rng.uniform(-3, 2)
    ws = [rng.normal(scale=scale, size=40) for _ in range(n)]
    ws[0][:5] = 0.0
    eps = float(rng.uniform(0.001, 0.5))
    tau = float(rng.choice([0.0, 0.5 * scale]))
    tol = 1e-14 * max(np.max(np.abs(w)) for w in ws)

    got = bdc_round(ws, eps, tau)
    assert isinstance(got, np.ndarray) and got.shape == (n, 40)
    assert np.array_equal(got, np.array(ref.bdc_round(ws, eps, tau, neighbors)))
    assert np.max(np.abs(wac_round(ws) - np.array(ref.wac_round(ws, neighbors)))) <= tol
    assert np.max(np.abs(dcea_round(ws, eps) - np.array(ref.dcea_round(ws, eps, neighbors)))) <= tol


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -0.5]


@pytest.mark.parametrize("tau", [0.0, -0.0, 0.5, 1.0, -0.5, 5e-324, np.inf, -np.inf, np.nan])
def test_quantizer_matches_where_form(tau):
    rng = np.random.default_rng(3)
    x = np.concatenate([
        SPECIAL,
        rng.normal(size=2000),
        rng.normal(scale=1e-300, size=200),
        rng.choice([-1.0, -0.5, 0.5, 1.0], size=200),
    ])
    rng.shuffle(x)
    for arr in (x, x[:2400].reshape(4, -1), x[::3]):
        got, want = ternary_quantize(arr, tau), ref.ternary_quantize(arr, tau)
        assert got.dtype == want.dtype and got.shape == want.shape
        # Bytes, so that a -0.0 against a 0.0 would show.
        assert got.tobytes() == want.tobytes()
