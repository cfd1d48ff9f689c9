"""Shared fixtures: synthetic traces and a small run config on disk."""

import os

# One BLAS thread, as README and the bench run the package: a second thread
# burns CPU time with no wall-time gain. Set before anything loads NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math
from pathlib import Path

import pytest
import yaml
from hypothesis import settings

# Keep hypothesis fast and deterministic under the full suite.
settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def synth_velocity(t: float) -> float:
    """Smooth leader velocity in m/s, bounded well inside [0, 60]."""
    return 15.0 + 4.0 * math.sin(2.0 * math.pi * t / 120.0) + 1.5 * math.sin(
        2.0 * math.pi * t / 23.0 + 1.0
    )


def write_trace(path: Path, t_end: float, dt: float = 0.1) -> Path:
    """Wide trace CSV covering [0, t_end] at dt with two vehicle columns."""
    n = int(round(t_end / dt))
    with path.open("w", newline="") as fh:
        fh.write("time,v1,v2\n")
        for k in range(n + 1):
            t = k * dt
            fh.write(
                f"{t:.1f},{synth_velocity(t):.4f},{synth_velocity(max(t - 1.5, 0.0)):.4f}\n"
            )
    return path


@pytest.fixture(scope="session")
def trace_600s(tmp_path_factory) -> Path:
    """The 0-600 s synthetic fixture trace at 10 Hz."""
    return write_trace(tmp_path_factory.mktemp("traces") / "trace600.csv", 600.0)


@pytest.fixture(scope="session")
def trace_20s(tmp_path_factory) -> Path:
    return write_trace(tmp_path_factory.mktemp("traces") / "trace20.csv", 20.0)


@pytest.fixture()
def tiny_config(tmp_path) -> Path:
    """A desk-scale run config for CLI tests."""
    raw = {
        "scenario": {
            "n_vehicles": 2,
            "episode_steps": 40,
            "seed": 0,
        },
        "train": {
            "total_steps": 80,
            "eval_seeds": 2,
            "consensus": {"protocol": "bdc"},
        },
        "output_dir": str(tmp_path / "runs"),
        "seeds": [0],
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path
