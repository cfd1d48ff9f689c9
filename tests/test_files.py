"""Every output file is written beside its target and moved into place: a
write whose final move fails leaves the earlier file byte-unchanged and no
temporary file behind."""

import os
from pathlib import Path

import numpy as np
import pytest

from platoonrl.cli import main
from platoonrl.data import LeaderProfile, save_profile
from platoonrl.nn import init_agent_net, save_params
from platoonrl.train import (
    EvalReport,
    EvalRow,
    LogRow,
    consensus_bench,
    write_consensus_bench,
    write_train_log,
)

EARLIER = b"an earlier run's file\n"
ROW = EvalRow(0, *np.linspace(0.5, 4.5, 9).tolist(), 1)


def cli(*argv):
    return lambda out, config, trace: main(
        [a.format(config=config, trace=trace) for a in argv] + ["--output-dir", str(out)]
    )


# Each writer by the file it writes: a call that writes that file into the
# output directory `out`, given the run config and trace fixture paths.
WRITERS = {
    "train_log_seed0.csv": lambda out, config, trace: write_train_log(
        [LogRow(1, 40, -1.5, 0, 96)], out / "train_log_seed0.csv"
    ),
    "eval_report.csv": lambda out, config, trace: EvalReport([ROW], ROW).to_csv(
        out / "eval_report.csv"
    ),
    "consensus_bench.csv": lambda out, config, trace: write_consensus_bench(
        consensus_bench(rounds=2), out / "consensus_bench.csv"
    ),
    "leader_profile.csv": lambda out, config, trace: save_profile(
        LeaderProfile(np.array([15.0, 15.5]), 0.0, 0.2, 0.1, "v1:0-0.2"),
        out / "leader_profile.csv",
    ),
    "agent0.npz": lambda out, config, trace: save_params(
        init_agent_net(15, 8, rng=np.random.default_rng(0)), out / "agent0.npz"
    ),
    "replay_log.csv": cli(
        "replay", "--config", "{config}", "--trace", "{trace}", "--window", "0:5"
    ),
    "energy_poly.csv": cli("fit-energy", "--grid", "21x21"),
    "sweep_size.csv": cli("sweep-size", "--config", "{config}", "--steps", "40"),
}


@pytest.fixture()
def write(tiny_config, trace_20s):
    """Run one writer into `out`; its exit code as the CLI gives it, 2 on an
    OSError."""

    def run(name: str, out: Path) -> int:
        try:
            return WRITERS[name](out, tiny_config, trace_20s) or 0
        except OSError:
            return 2

    return run


def leftovers(out: Path) -> list[str]:
    return [p.name for p in out.rglob("*") if ".tmp" in p.name]


@pytest.mark.parametrize("name", WRITERS)
def test_writer_replaces_earlier_file(name, write, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(EARLIER)
    assert write(name, out) == 0
    assert (out / name).read_bytes() != EARLIER
    assert leftovers(out) == []


@pytest.mark.parametrize("name", WRITERS)
def test_failed_move_keeps_earlier_file(name, write, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    target = out / name
    target.write_bytes(EARLIER)
    replace, refused = os.replace, []

    def refuse_target(src, dst):
        if Path(dst) == target:
            refused.append(Path(src).name)
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr("platoonrl.files.os.replace", refuse_target)
    assert write(name, out) == 2
    assert target.read_bytes() == EARLIER
    assert refused == [f".{name}.{os.getpid()}.tmp{target.suffix}"]
    assert leftovers(out) == []
