"""platoonrl benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload train-n4 --seed 0 --seconds 30 --trace 0

Builds the workload from the seed, repeats whole rounds of it until the
rounds add up to --seconds of wall time, checks every round's outputs
outside the timed sections, and prints one JSON object as the last line of
standard output: whether the outputs were correct, the operations
(episodes) attempted and failed, and the metrics. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones; see README.md.

The package is imported from ``src/`` next to this directory and nowhere
else, so the benchmark measures the checkout it sits in and fails when
that checkout has no package.
"""

from __future__ import annotations

import os

# One BLAS thread: OpenBLAS would otherwise start one per core and, on the
# small matrix-vector products of this package, burn CPU without gaining
# wall time, which makes timings depend on what else the machine runs.
# Set before numpy is imported, here and in every set-up probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / "bench_out"
SETUP_PROBES = 7
# The reference kernel's median time on the machine the reference figures
# in README.md come from; env_steps_per_s counts steps per this much kernel.
REFERENCE_PROBE_S = 0.014


def _import_program() -> None:
    """Put the checkout's src/ first on the path and import platoonrl from it."""
    if not (SRC / "platoonrl" / "__init__.py").is_file():
        raise SystemExit(f"error: no platoonrl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import platoonrl

    if Path(platoonrl.__file__).resolve().parent != SRC / "platoonrl":
        raise SystemExit(f"error: platoonrl imported from {platoonrl.__file__}, not {SRC}")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="build the workload, print the wall-clock time, exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to its workload being built:
    interpreter start, imports, config resolution, env and network
    construction and, for the replay, writing and parsing the trace."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--setup-probe",
    ]
    start = time.time()
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def _reference_seconds(t0: float, t1: float, marks: list, probes: tuple[float, float]) -> float:
    """A round's wall time in reference seconds: the probes split it into
    stretches of about Meter.interval, and each stretch is scaled by
    REFERENCE_PROBE_S over the mean of the probes at its two ends. The
    probes' own time is left out."""
    durations = [probes[0]] + [d for _, d in marks] + [probes[1]]
    starts = [t0] + [t + d for t, d in marks]
    ends = [t for t, _ in marks] + [t1]
    return sum(
        (end - start) * REFERENCE_PROBE_S / ((durations[k] + durations[k + 1]) / 2)
        for k, (start, end) in enumerate(zip(starts, ends))
    )


def _run_rounds(workload, seconds: float, tracer, meter, probe, log) -> list[dict]:
    """Whole rounds until they add up to ``seconds`` of wall time.

    Untraced rounds run the reference probe before the round, every
    Meter.interval of work during it, and after it. With a tracer, rounds
    alternate untraced and traced, starting untraced; traced rounds run no
    probe, so their spans hold only the program's time.
    """
    rounds: list[dict] = []
    spent = 0.0
    while spent < seconds or (tracer is not None and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        meter.probe = None if traced else probe
        first_probe = 0.0 if traced else probe()
        output, error = None, None
        meter.begin()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.root():
                    output = workload.run()
            else:
                output = workload.run()
        except Exception:  # an operation that raises is a failed operation
            error = traceback.format_exc()
        t1 = time.perf_counter()
        last_probe = 0.0 if traced else probe()
        episode_steps, marks = meter.take()
        ops = max(len(episode_steps), 1)
        if error is not None:
            log(error)
            failed, check_failed = ops, False
        else:
            found = workload.check(output, episode_steps)
            for op, message in found:
                log(f"check failed (round {len(rounds)}, op {op}): {message}")
            failed_ops = {op for op, _ in found}
            failed = ops if None in failed_ops else len(failed_ops)
            check_failed = bool(found)
        spent += t1 - t0
        steps = sum(episode_steps)
        work = t1 - t0 - sum(d for _, d in marks)
        ref = None if traced else _reference_seconds(t0, t1, marks, (first_probe, last_probe))
        rounds.append(
            dict(
                traced=traced, seconds=work, reference_seconds=ref, steps=steps,
                episodes=ops, failed=failed, check_failed=check_failed,
                comm_bits=getattr(output, "comm_bits", 0),
                probe_ms=[round(d * 1e3, 3) for d in [first_probe] + [d for _, d in marks] + [last_probe]],
            )
        )
        log(
            f"round {len(rounds) - 1}{' traced' if traced else ''}: {steps} steps, {ops} episodes "
            f"in {work:.3f} s, {steps / work:.1f} steps/s"
            + ("" if traced else f", {steps / ref:.1f} per reference s")
            + f", {failed} failed"
        )
    return rounds


def _rate(rounds: list[dict], key: str = "seconds") -> float:
    """Median over rounds of steps per second of wall time (``seconds``) or
    of reference time (``reference_seconds``)."""
    return statistics.median(r["steps"] / r[key] for r in rounds)


def _layer_metrics(tracer, rounds: list[dict], untraced_rate: float, data_load_s: float) -> dict:
    """Per-layer metrics from the traced rounds (see README.md)."""
    traced = [r for r in rounds if r["traced"]]
    steps = sum(r["steps"] for r in traced)
    episodes = sum(r["episodes"] for r in traced)
    wall = sum(r["seconds"] for r in traced)
    layer = tracer.totals

    def per_kstep(seconds: float) -> float:
        return seconds * 1e6 / steps

    def per_call_ms(name: str) -> float:
        totals = layer(name)
        return totals.inclusive * 1e3 / totals.calls if totals.calls else 0.0

    rounds_per_run = layer("consensus").calls / len(traced)
    bits = traced[0]["comm_bits"]
    return {
        "nn.forward.ms_per_kstep": (per_kstep(layer("nn.forward").inclusive), "ms/kstep"),
        "nn.forward.calls_per_step": (layer("nn.forward").calls / steps, "calls/step"),
        "nn.backward.ms_per_kstep": (per_kstep(layer("nn.backward").inclusive), "ms/kstep"),
        "nn.backward.calls_per_episode": (layer("nn.backward").calls / episodes, "calls/episode"),
        "nn.params.ms_per_kstep": (per_kstep(layer("nn.params").inclusive), "ms/kstep"),
        "nn.save.ms": (per_call_ms("nn.save"), "ms"),
        "env.ms_per_kstep": (per_kstep(layer("env").inclusive), "ms/kstep"),
        "env.self.ms_per_kstep": (per_kstep(layer("env").self_time), "ms/kstep"),
        "physics.ms_per_kstep": (per_kstep(layer("physics").inclusive), "ms/kstep"),
        "physics.calls_per_step": (layer("physics").calls / steps, "calls/step"),
        "consensus.round_ms": (per_call_ms("consensus"), "ms"),
        "consensus.rounds": (rounds_per_run, "count"),
        "consensus.bits_per_round": (bits / rounds_per_run if rounds_per_run else 0, "bit"),
        "train.self.ms_per_kstep": (per_kstep(layer("train.self").self_time), "ms/kstep"),
        "data.load_ms": (data_load_s * 1e3, "ms"),
        "trace.overhead_pct": ((untraced_rate / _rate(traced) - 1.0) * 100.0, "%"),
        "trace.accounted_pct": (
            sum(t.self_time for t in tracer.layers.values()) / wall * 100.0, "%"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _import_program()
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    tracer = spans.Tracer() if args.trace else None
    probe = spans.ReferenceKernel()
    setup: list[float] = []
    meter = spans.Meter()
    with meter.installed():
        rounds = _run_rounds(workload, args.seconds, tracer, meter, probe, log)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [r for r in rounds if not r["traced"]]
    metrics: dict[str, tuple[float, str]]
    if tracer is None:
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        log("setup_s probes: " + " ".join(f"{s:.3f}" for s in setup))
        metrics = {
            "env_steps_per_s": (_rate(untraced, "reference_seconds"), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, rounds, _rate(untraced), workload.data_load_s)
        tracer.write(out_dir / "spans.csv")
    result = {
        "correct": not any(r["check_failed"] for r in rounds),
        "attempted": sum(r["episodes"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, rounds=rounds, setup=setup), indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
