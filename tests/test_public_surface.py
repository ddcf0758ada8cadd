"""The exported names: every ``__all__`` entry of the package and of its
modules resolves, and no list names the same thing twice."""

import importlib
import pkgutil

import pytest

import betamix

MODULES = [betamix, *(importlib.import_module(f"betamix.{info.name}")
                      for info in pkgutil.iter_modules(betamix.__path__))]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_modules_are_found():
    names = {m.__name__ for m in EXPORTING}
    assert {"betamix", "betamix.model", "betamix.likelihood", "betamix.selection"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_exports_resolve_and_are_unique(module):
    exported = list(module.__all__)
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
    repeated = sorted({name for name in exported if exported.count(name) > 1})
    assert not repeated, f"{module.__name__}.__all__ repeats {repeated}"
