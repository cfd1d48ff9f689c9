"""The package's public surface: __all__ lists exactly what __init__ imports,
and importing it loads neither PyYAML nor an executor and starts no thread."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import platoonrl

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_names() -> set[str]:
    tree = ast.parse(Path(platoonrl.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_all_lists_the_imported_names():
    assert len(platoonrl.__all__) == len(set(platoonrl.__all__)), "no name listed twice"
    assert set(platoonrl.__all__) == imported_names()


def test_every_exported_name_resolves():
    for name in platoonrl.__all__:
        assert getattr(platoonrl, name) is not None, name


def test_import_loads_no_yaml_no_executor_and_starts_no_thread():
    # load_config imports yaml and backward its executor when they run, so
    # that importing the package, which every run's setup pays, does
    # neither. A fresh interpreter holds only what the import loaded.
    code = (
        "import json, sys, threading, platoonrl\n"
        "print(json.dumps([sorted(m for m in ('yaml', 'concurrent.futures') if m in sys.modules),"
        " threading.active_count()]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [[], 1]
