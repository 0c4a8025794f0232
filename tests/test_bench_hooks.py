"""The benchmark's tracer wraps drex names it finds by lookup.

``perfbench/tracing.py`` replaces names in module and class ``__dict__``s
and the benchmark worker clears drex's caches by name; a refactor that
drops one of them breaks ``perfbench/run.py --trace 1`` at install time.
These checks read ``perfbench/`` and change nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
tracing = importlib.import_module("tracing")
worker = importlib.import_module("worker")


@pytest.mark.parametrize(
    "module,name",
    [(m, n) for m, names in tracing.IMPORTED.items() for n in names],
)
def test_imported_names_exist(module, name):
    assert name in vars(importlib.import_module(module)), f"{module}.{name}"


@pytest.mark.parametrize(
    "module,cls,name",
    [(m, c, n) for m, methods in tracing.METHODS.items() for c, n in methods],
)
def test_wrapped_methods_exist(module, cls, name):
    assert name in vars(getattr(importlib.import_module(module), cls)), f"{cls}.{name}"


def test_cleared_caches_exist():
    from drex import semantics, syntax

    for name in worker.SYNTAX_CACHES:
        assert hasattr(getattr(syntax, name), "cache_clear"), name
    assert hasattr(semantics._dca, "cache_clear")
