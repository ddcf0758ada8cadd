"""Library modules report through the ``betamix`` logger and their return
values; only the command-line layer writes to the console."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betamix"
LIBRARY_MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "cli.py")


def test_library_modules_are_found():
    assert PACKAGE / "mcmc.py" in LIBRARY_MODULES


@pytest.mark.parametrize("path", LIBRARY_MODULES, ids=lambda p: p.name)
def test_library_module_calls_no_print(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert not calls, f"{path.name} calls print on lines {calls}"
