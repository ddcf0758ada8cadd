"""Every name a library module imports is used there: a name listed in the
module's ``__all__`` (a re-export) counts as used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betamix"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES and PACKAGE / "laplace.py" in MODULES


def test_an_unused_import_is_caught():
    tree = ast.parse("from typing import Callable, Sequence\n__all__ = ['f']\n"
                     "def f(x: Sequence): return x\n")
    assert set(_imported(tree)) - _used(tree) == {"Callable"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = _imported(tree)
    dead = sorted(set(imported) - _used(tree))
    assert not dead, f"{path.name} never uses " + ", ".join(
        f"{name} (line {imported[name]})" for name in dead)
