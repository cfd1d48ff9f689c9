"""The benchmark's traced run works against this package.

``bench/run.py --trace 1`` wraps platoonrl's public functions, looked up by
name (``bench/spans.py`` LAYER_TARGETS: the physics functions in
``platoonrl.env``'s namespace, ``PlatoonEnv.step``/``reset``, the ``nn``
functions and ``train.apply_consensus``), so a change that renames one of
them breaks the benchmark; this test fails first. The replay workload is
the quickest, and installing the tracer looks up every name whichever
workload runs. It also holds the environment to one physics call per
platoon step. The training workload is checked too, because only it
reaches ``nn.backward`` and ``train.apply_consensus``: a training path that
called either through another name would run untraced.
It also holds training to one agent-batched forward call per step and one
agent-batched backward call per episode, which returns the actor's and the
critic's gradients together, and greedy evaluation to one forward call per
step: a rollout that stepped the network under another name would leave the
``nn.forward`` layer empty.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result


def test_traced_replay_benchmark_runs_clean():
    result = run_traced("replay-n16-ovm")
    # One headway_velocity call (observations) per step, plus one per
    # reset: step runs the unchecked cores of ovm_accel, step_kinematics
    # and electric_power, which the tracer does not see. The per-vehicle
    # environment made 61 calls per step on this workload.
    calls = result["metrics"]["physics.calls_per_step"]["value"]
    assert calls <= 1.01, calls


def test_traced_train_benchmark_sees_backward_and_consensus():
    metrics = run_traced("train-n4")["metrics"]
    # One backward pass per episode, for both losses and all 4 agents at
    # once, and one forward call per platoon step for all agents.
    assert metrics["nn.backward.calls_per_episode"]["value"] == 1
    assert metrics["nn.forward.calls_per_step"]["value"] == 1
    assert metrics["consensus.rounds"]["value"] >= 1


def test_traced_eval_benchmark_sees_forward():
    metrics = run_traced("eval-n4")["metrics"]
    assert metrics["nn.forward.calls_per_step"]["value"] == 1
