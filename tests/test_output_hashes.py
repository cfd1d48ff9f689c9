"""Same bits: the CLI's outputs against their recorded sha256.

Forty files from the default config (seed 0, one BLAS thread): the
`train --steps 3000` log and four checkpoints under each consensus protocol
and under fprint observations, the 20-seed `eval_report.csv` of the bdc and
fprint checkpoints, `replay` at 5 vehicles over 316:376 s of the 600-s
fixture trace untrained and with the bdc checkpoints, `consensus-bench
--rounds 300` at six platoon sizes, and the `fit-energy` table.

The hashes hold for the NumPy version and machine recorded with them; on
another, the test fails and says so. Re-record them there with

    PYTHONPATH=src python tests/test_output_hashes.py
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from platoonrl.cli import main

GOLDEN = Path(__file__).parent / "golden" / "output_sha256.json"


def write_outputs(root: Path, trace: Path) -> None:
    """Run every command of the hash list, each into its own directory under root."""
    config = root / "run.yaml"
    config.write_text("{}\n")

    def run(name, *argv):
        assert main([*argv, "--config", str(config), "--output-dir", str(root / name)]) == 0

    train = ("train", "--steps", "3000", "--seed", "0")
    for protocol in ("bdc", "wac", "dcea", "none"):
        run(protocol, *train, "--protocol", protocol)
    run("fprint", *train, "--obs-mode", "fprint")
    run("bdc", "eval", "--seed", "0")
    run("fprint", "eval", "--seed", "0", "--obs-mode", "fprint")
    replay = ("replay", "--n-vehicles", "5", "--trace", str(trace), "--window", "316:376")
    run("replay_untrained", *replay)
    run("replay_bdc", *replay, "--checkpoint-dir", str(root / "bdc" / "checkpoints" / "seed0"))
    for n in (2, 3, 4, 5, 8, 17):
        run(f"consensus_n{n}", "consensus-bench", "--rounds", "300", "--n-vehicles", str(n))
    run("fit_energy", "fit-energy")


def output_hashes(root: Path) -> dict[str, str]:
    """sha256 of every output file under root, by its path relative to root."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.suffix in (".csv", ".npz")
    }


def platform_record() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def test_outputs_match_recorded_hashes(tmp_path, trace_600s):
    golden = json.loads(GOLDEN.read_text())
    recorded = {key: golden[key] for key in platform_record()}
    assert recorded == platform_record(), (
        f"hashes recorded under {recorded}, this is {platform_record()}: "
        "re-record them with `PYTHONPATH=src python tests/test_output_hashes.py`"
    )
    write_outputs(tmp_path, trace_600s)
    got = output_hashes(tmp_path)
    assert len(got) == len(golden["sha256"]) == 40
    changed = sorted(name for name in golden["sha256"] if got.get(name) != golden["sha256"][name])
    assert not changed, f"outputs whose bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    from conftest import write_trace

    with tempfile.TemporaryDirectory() as tmp:
        trace = write_trace(Path(tmp) / "trace600.csv", 600.0)
        out = Path(tmp) / "out"
        out.mkdir()
        write_outputs(out, trace)
        record = {**platform_record(), "sha256": output_hashes(out)}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(record['sha256'])} hashes -> {GOLDEN}")
