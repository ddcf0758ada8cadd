"""Source rules for the package: neither ``scipy.stats`` nor
``scipy.integrate`` on its import path (each slows ``import betamix``; the
quantile functions of ``scipy.special`` and trapezoid sums on grids are all
the package needs) and lines of at most 100 columns."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betamix"
MODULES = sorted(PACKAGE.rglob("*.py"))
MAX_COLUMNS = 100


def _import_lines(path: Path, package: str) -> list[int]:
    """Lines of ``path`` that import ``package`` or one of its modules."""
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
        if any(n == package or n.startswith(package + ".") for n in names):
            lines.append(node.lineno)
    return lines


def test_modules_are_found():
    assert PACKAGE / "priors.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_scipy_stats(path):
    lines = _import_lines(path, "scipy.stats")
    assert not lines, f"{path.name} imports scipy.stats on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_does_not_import_scipy_integrate(path):
    lines = _import_lines(path, "scipy.integrate")
    assert not lines, f"{path.name} imports scipy.integrate on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_lines_fit_in_100_columns(path):
    wide = [k for k, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not wide, f"{path.name} has lines over {MAX_COLUMNS} columns: {wide}"
