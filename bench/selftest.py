"""Self-test of the benchmark: every workload at a tiny size through the
same round loop, tracer included, and every output check shown to reject a
deliberately corrupted output.

    python3 bench/selftest.py

Exits 0 when all of it holds, 1 at the first thing that does not. Takes a
few seconds; writes under bench_out/selftest/.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace

import run  # sets the BLAS thread count before numpy is imported

run._import_program()

import numpy as np  # noqa: E402

import platoonrl as prl  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, log_arrays  # noqa: E402

OUT = run.OUT / "selftest"


class SelfTestError(AssertionError):
    pass


def expect(found: list, fragment: str, what: str) -> None:
    """The corrupted output must be rejected with a message naming the fault."""
    if not any(fragment in message for _, message in found):
        raise SelfTestError(f"{what}: not rejected (got {found})")
    print(f"ok  rejects {what}")


def run_tiny(name: str):
    """Two rounds of the tiny workload, one of them traced; returns the
    workload, the last round's output and its per-episode step counts."""
    workload = WORKLOADS[name](3, OUT / name, tiny=True)
    tracer, meter = spans.Tracer(), spans.Meter()
    with meter.installed():
        rounds = run._run_rounds(workload, 0.0, tracer, meter, spans.ReferenceKernel(), lambda message: None)
        meter.begin()
        output = workload.run()
        steps, _ = meter.take()
    if any(r["failed"] or r["check_failed"] for r in rounds):
        raise SelfTestError(f"{name}: a tiny round failed: {rounds}")
    metrics = run._layer_metrics(tracer, rounds, run._rate(rounds), workload.data_load_s)
    accounted = metrics["trace.accounted_pct"][0]
    if not 99.0 <= accounted <= 100.0 + 1e-9:
        raise SelfTestError(f"{name}: spans account for {accounted:.2f} % of the traced wall time")
    if workload.check(output, steps):
        raise SelfTestError(f"{name}: an uncorrupted repetition failed its checks")
    print(f"ok  {name}: {sum(r['episodes'] for r in rounds)} episodes, "
          f"{sum(r['steps'] for r in rounds)} steps, spans account for {accounted:.2f} %")
    return workload, output, steps


def train_cases() -> None:
    w, result, steps = run_tiny("train-n4")
    text = w.log_path.read_text()
    lines = text.splitlines(keepends=True)
    total, ep = w.cfg.train.total_steps, w.cfg.scenario.episode_steps

    def log_check(corrupt: str) -> list:
        return checks.check_train_log(corrupt, total, ep, w.bits_per_round)

    row = lines[1].rstrip("\n").split(",")
    bad_bits = ",".join(row[:4] + [str(int(row[4]) + 1)]) + "\n"
    expect(log_check(lines[0] + bad_bits + "".join(lines[2:])), "comm_bits_cum", "an off-by-one bit count")
    flat = [r.rstrip("\n").split(",") for r in lines[1:3]]
    flat[1][1] = flat[0][1]
    stalled = lines[0] + "".join(",".join(r) + "\n" for r in flat) + "".join(lines[3:])
    expect(log_check(stalled), "steps", "cumulative steps that do not rise")
    expect(log_check("".join(lines[:-1])), "final steps", "a run that stops short of its step budget")
    expect(checks.check_log_steps(text, steps[:-1] + [steps[-1] + 1]), "counted", "a log that disagrees with the env steps run")

    w.log_path.write_text(text.replace(row[2], f"{float(row[2]) + 1e-6:.6f}", 1))
    expect(w.check(result, steps), "differs", "a repetition whose log is not byte-identical")
    w.log_path.write_text(text)

    path = w.checkpoint_dir / "agent1.npz"
    good = path.read_bytes()
    net = prl.load_params(path)
    params = prl.flatten_params(net)
    params[7] = np.nan
    prl.set_flat_params(net, params)
    prl.save_params(net, path)
    expect(w.check(result, steps), "non-finite", "a checkpoint with a NaN parameter")
    expect(checks.check_checkpoint(params[:-1], w.n_params, "agent1.npz"), "parameters", "a checkpoint one parameter short")
    path.write_bytes(good)

    eps = w.cfg.train.consensus.eps
    before = np.array([prl.flatten_params(prl.load_params(w.checkpoint_dir / f"agent{i}.npz")) for i in range(w.n_agents)])
    after = np.array(prl.bdc_round(list(before), eps))
    if checks.check_bdc_round(before, after, eps):
        raise SelfTestError("an honest bdc round was rejected")
    shifted = after.copy()
    shifted[0, 5] += 1e-9
    expect(checks.check_bdc_round(before, shifted, eps), "mean", "a bdc round that shifts a component mean")
    spread = after.copy()
    spread[0, 5] += 5 * eps  # agent 0 has one neighbour: at most 2 eps
    spread[1, 5] -= 5 * eps
    expect(checks.check_bdc_round(before, spread, eps), "2 eps deg", "a bdc round that moves a component too far")
    if w.check(result, steps):
        raise SelfTestError("train-n4: restored outputs still fail their checks")


def eval_cases() -> None:
    w, report, steps = run_tiny("eval-n4")
    rows, agg = report.rows, report.aggregate
    max_steps, dt = w.cfg.scenario.episode_steps, w.cfg.scenario.dt

    def with_row(k: int, **changes) -> list:
        out = list(rows)
        out[k] = replace(out[k], **changes)
        return out

    def eval_check(rows_, agg_=agg, steps_=steps) -> list:
        return checks.check_eval_report(rows_, agg_, steps_, max_steps, dt)

    expect(eval_check(with_row(0, energy_kwh=rows[0].energy_kwh * (1 + 1e-6))), "energy", "a perturbed energy value")
    short = [s - 1 if k == 0 else s for k, s in enumerate(steps)]
    expect(eval_check(with_row(0, collisions=0), steps_=short), "collisions", "an early end with no collision counted")
    expect(eval_check(rows, steps_=[s + 1 for s in steps]), "steps", "an episode longer than its budget")
    expect(eval_check(rows, replace(agg, ivs_mean_m=agg.ivs_mean_m + 1e-6)), "ivs_mean_m", "a wrong aggregate mean")
    expect(eval_check(rows, replace(agg, power_std_kw=agg.power_std_kw * 1.001)), "power_std_kw", "a wrong aggregate std")
    expect(eval_check(rows, replace(agg, energy_kwh=agg.energy_kwh + 1e-6)), "energy_kwh", "a wrong aggregate energy")
    expect(eval_check(rows, replace(agg, collisions=agg.collisions + 1)), "collisions", "a wrong collision total")
    expect(checks.check_same_rows(with_row(1, velocity_mean_mps=rows[1].velocity_mean_mps + 1e-12) + [agg], w.reference), "differs", "a repetition with a different report")


def replay_cases() -> None:
    w, logs, steps = run_tiny("replay-n16-ovm")
    base = log_arrays(logs[0])

    def replay_check(log: dict) -> list:
        found = checks.check_replay(log, w.leader, w.scenario.episode_steps, w.scenario.dt, w.law, w.vehicle, (0.0, 30.0))
        return [(0, message) for message in found]

    if replay_check(base):
        raise SelfTestError("an honest replay episode was rejected")

    def corrupted(key: str, index: tuple, delta: float) -> dict:
        log = copy.deepcopy(base)
        log[key][index] += delta
        return log

    expect(replay_check(corrupted("velocity", (5, 0), 1e-6)), "leader", "a leader velocity off the trace")
    expect(replay_check(corrupted("accel", (5, 7), 1e-9)), "OVM law", "a follower acceleration off the OVM law")
    expect(replay_check(corrupted("power", (5, 3), 1e-6)), "power", "a power value off the closed form")
    expect(replay_check(corrupted("spacing", (5, 9), 1e-6)), "spacing", "a spacing off the kinematic update")
    fast = copy.deepcopy(base)
    fast["velocity"][-1, 12] = 30.5
    expect(replay_check(fast), "velocity outside", "a velocity above the box")
    short = {key: value[:-1] for key, value in base.items()}
    expect(replay_check(short), "steps", "an episode that ends early")
    expect(w.check(logs, [s + 1 for s in steps]), "counted", "step counts that disagree with the logs")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        train_cases()
        eval_cases()
        replay_cases()
    except SelfTestError as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
