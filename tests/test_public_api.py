"""The package's public surface: __all__ lists exactly what __init__ imports."""

import ast
from pathlib import Path

import platoonrl


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
