"""Source rules for the package: no ``scipy.stats`` on its import path
(importing it slows ``import betamix``, and the quantile functions of
``scipy.special`` are all the package needs) and lines of at most 100
columns."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betamix"
MODULES = sorted(PACKAGE.rglob("*.py"))
MAX_COLUMNS = 100


def test_modules_are_found():
    assert PACKAGE / "priors.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_scipy_stats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        else:
            continue
        if any(n == "scipy.stats" or n.startswith("scipy.stats.") for n in names):
            lines.append(node.lineno)
    assert not lines, f"{path.name} imports scipy.stats on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_lines_fit_in_100_columns(path):
    wide = [k for k, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not wide, f"{path.name} has lines over {MAX_COLUMNS} columns: {wide}"
