"""Release acceptance suite.

One test per acceptance criterion, each checked at its stated tolerance.
Every test prints a single ``criterion NN <name>: PASS|FAIL`` line (outside
pytest's capture) so the whole gate can be read off the terminal at a glance.

Criterion 7 trains three policies for 1e5 environment steps each and then
evaluates the strongest one over 20 seeds; it dominates the suite's runtime
(a few minutes on a desktop CPU). Everything else finishes in seconds.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import numpy as np
import pytest

from platoonrl import (
    ConsensusConfig,
    OvmParams,
    ScenarioConfig,
    TrainConfig,
    VehicleParams,
    bdc_round,
    dcea_round,
    driving_force,
    electric_power,
    eval_energy_poly,
    evaluate,
    extract_window,
    fit_energy_poly,
    headway_velocity,
    parse_trace_csv,
    qsgd_step,
    train,
    wac_round,
)
from platoonrl.cli import main

GOLDEN = Path(__file__).parent / "golden" / "replay_log_head.csv"


@contextlib.contextmanager
def criterion(capsys, num: int, name: str):
    """Print one visible PASS/FAIL line for the wrapped assertions."""
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}")


def test_01_physics_exactness(capsys):
    with criterion(capsys, 1, "longitudinal physics"):
        params = VehicleParams()
        assert abs(driving_force(params, 15.0, 0.0) - 291.83) <= 0.05
        assert abs(electric_power(params, 15.0, 0.0) - 4.864) <= 0.005


def test_02_ovm_boundaries(capsys):
    with criterion(capsys, 2, "spacing policy boundaries"):
        params = OvmParams()
        assert headway_velocity(params, 5.0) == 0.0
        assert headway_velocity(params, 35.0) == 30.0
        assert abs(headway_velocity(params, 20.0) - 15.0) <= 1e-12


def test_03_energy_fit_quality(capsys):
    with criterion(capsys, 3, "energy surrogate fit"):
        params = VehicleParams()
        poly, rmse = fit_energy_poly(params)
        assert rmse <= 0.5, f"fit rmse {rmse:.4f} kW"

        # Held-out grid: offset by half a cell in each axis, clipped to the
        # operating box so no point coincides with a fitted sample.
        v_grid = np.linspace(0.0, 30.0, 61) + 0.25
        u_grid = np.linspace(-2.5, 2.5, 51) + 0.05
        v_grid = v_grid[v_grid <= 30.0]
        u_grid = u_grid[u_grid <= 2.5]
        resid = [
            eval_energy_poly(poly, v, u) - electric_power(params, v, u)
            for v in v_grid
            for u in u_grid
        ]
        held_out = float(np.sqrt(np.mean(np.square(resid))))
        assert held_out <= 1.0, f"held-out rmse {held_out:.4f} kW"


def test_04_consensus_properties(capsys):
    with criterion(capsys, 4, "consensus protocol properties"):
        rng = np.random.default_rng(42)

        # BDC: shared sign pattern is a fixed point.
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        ws = [signs * rng.uniform(0.1, 2.0, size=5) for _ in range(4)]
        out = bdc_round(ws, eps=0.01)
        for before, after in zip(ws, out):
            assert np.array_equal(before, after)

        # BDC: per-component movement bounded by 2 * eps * degree.
        ws = [rng.normal(size=5) for _ in range(4)]
        out = bdc_round(ws, eps=0.01)
        for i, (before, after) in enumerate(zip(ws, out)):
            bound = 2.0 * 0.01 * (1 if i in (0, 3) else 2)
            assert np.max(np.abs(after - before)) <= bound + 1e-15

        # DCEA: across-agent mean of every component is conserved.
        ws = [rng.normal(size=5) for _ in range(4)]
        mean0 = np.mean(ws, axis=0)
        for _ in range(100):
            ws = dcea_round(ws, eps=0.3)
        assert np.max(np.abs(np.mean(ws, axis=0) - mean0)) <= 1e-12

        # WAC: spread below 1e-3 after 500 rounds on the 4-node path.
        ws = [np.array([float(i), -float(i)]) for i in range(4)]
        for _ in range(500):
            ws = wac_round(ws)
        spread = np.max(np.max(ws, axis=0) - np.min(ws, axis=0))
        assert spread <= 1e-3, f"spread {spread:.3e} after 500 rounds"


def test_05_qsgd_error_feedback_convergence(capsys):
    with criterion(capsys, 5, "compressed-gradient convergence"):
        # Minimize 0.5 * (w - 3)^2 from w0 = 0 with lr = 0.05. The package
        # trajectory must match the plain-float recurrence oracle exactly,
        # enter the 0.1 ball around the optimum within 200 steps, and stay
        # inside for the rest of the horizon.
        w = np.zeros(1)
        res = np.zeros(1)
        oracle_w, oracle_r = 0.0, 0.0
        inside = []
        for _ in range(400):
            grad = w - 3.0
            w, res = qsgd_step(w, grad, res, lr=0.05)
            p = (oracle_w - 3.0) + oracle_r
            q = (p > 0.0) - (p < 0.0)
            oracle_w -= 0.05 * q
            oracle_r = p - q
            assert w[0] == oracle_w, f"diverged from oracle: {w[0]} vs {oracle_w}"
            assert res[0] == oracle_r
            inside.append(abs(w[0] - 3.0) <= 0.1 + 1e-12)
        first_entry = inside.index(True) + 1
        settle = next(t for t in range(len(inside)) if all(inside[t:])) + 1
        assert first_entry <= 200, f"first entry at step {first_entry}"
        assert settle <= 200, f"containment only from step {settle}"
        assert (first_entry, settle) == (58, 126), "oracle drift"


def test_06_gradient_correctness(capsys):
    with criterion(capsys, 6, "analytic gradients vs finite differences"):
        import test_nn

        start = time.perf_counter()
        eights = 0
        for seed in range(1000, 1128):
            net, obs_seq, loss = test_nn.random_case(seed)
            if len(obs_seq) == 8:
                eights += 1
            coords = np.random.default_rng(seed + 9000).choice(
                637, size=12, replace=False
            )
            test_nn.check_gradients(net, obs_seq, loss, coords)
        elapsed = time.perf_counter() - start
        assert eights >= 10, f"only {eights} eight-step unrolls"
        assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"


@pytest.mark.slow
def test_07_training_smoke(capsys):
    with criterion(capsys, 7, "training improves and evals clean"):
        scenario = ScenarioConfig(n_vehicles=4, d_star=20.0, v_star=15.0, seed=0)
        cfg = TrainConfig(
            total_steps=100_000,
            obs_mode="ia2c",
            consensus=ConsensusConfig(protocol="bdc"),
            eval_seeds=20,
        )
        improved = 0
        best = None
        for seed in (0, 1, 2):
            result = train(cfg, scenario, seed=seed)
            rewards = [row.mean_reward for row in result.log]
            k = max(1, len(rewards) // 10)
            first = float(np.mean(rewards[:k]))
            last = float(np.mean(rewards[-k:]))
            if last > first:
                improved += 1
            if best is None or last > best[0]:
                best = (last, result.nets)
        assert improved >= 2, f"reward improved in only {improved}/3 seeds"

        report = evaluate(best[1], scenario, 20)
        agg = report.aggregate
        assert agg.collisions == 0, f"{agg.collisions} collisions across 20 seeds"
        assert 17.0 <= agg.ivs_mean_m <= 23.0, f"mean IVS {agg.ivs_mean_m:.3f} m"


def test_08_communication_accounting(capsys):
    with criterion(capsys, 8, "2-bit vs 32-bit payload ratio"):
        scenario = ScenarioConfig(
            n_vehicles=2,
            episode_steps=30,
            perturbation=None,
            init_spacing_jitter=0.0,
            init_velocity_jitter=0.0,
            seed=0,
        )
        bits = {
            protocol: train(
                TrainConfig(total_steps=60, consensus=ConsensusConfig(protocol=protocol)),
                scenario,
                hidden_dim=8,
            ).comm_bits
            for protocol in ("bdc", "wac")
        }
        assert bits["bdc"] > 0
        assert bits["bdc"] * 16 == bits["wac"]


def test_09_determinism(capsys, tiny_config, tmp_path):
    with criterion(capsys, 9, "byte-identical logs on repeat"):
        logs = []
        for sub in ("first", "second"):
            code = main([
                "train", "--config", str(tiny_config),
                "--output-dir", str(tmp_path / sub),
            ])
            assert code == 0
            logs.append((tmp_path / sub / "train_log_seed0.csv").read_bytes())
        assert logs[0] == logs[1]


def test_10_replay_pipeline(capsys, trace_600s, tmp_path):
    with criterion(capsys, 10, "trace window replay"):
        table = parse_trace_csv(trace_600s)
        profile = extract_window(table, "v1", 316.0, 376.0)
        assert len(profile) == 600
        assert profile.label == "v1:316-376"

        cfg = tmp_path / "defaults.yaml"
        cfg.write_text("")
        out = tmp_path / "replay"
        code = main([
            "replay", "--config", str(cfg), "--trace", str(trace_600s),
            "--window", "316:376", "--output-dir", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "samples=600" in stdout
        # Untrained networks may collide mid-window, ending the episode
        # early; the emitted log must still agree with the reported length.
        steps = int(stdout.split("steps=")[1].split()[0])
        assert steps >= 1

        # Format check against the frozen golden head: header byte-exact,
        # numeric fields within formatting tolerance (nan matches nan).
        got = (out / "replay_log.csv").read_text().splitlines()
        want = GOLDEN.read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == 1 + steps * 4, f"{steps} steps, 4 vehicles"
        for row_got, row_want in zip(got[1:], want[1:]):
            fields_got = row_got.split(",")
            fields_want = row_want.split(",")
            assert fields_got[:2] == fields_want[:2]
            for a, b in zip(fields_got[2:], fields_want[2:]):
                if b == "nan":
                    assert a == "nan"
                else:
                    assert abs(float(a) - float(b)) <= 5e-6, f"{a} vs {b}"

        stats = (out / "replay_stats.csv").read_text().splitlines()
        assert len(stats) == 3
        assert "ivs_mean_m" in stats[0] and "power_mean_kw" in stats[0]
