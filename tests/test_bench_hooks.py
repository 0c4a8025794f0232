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
    # The worker clears each cache and reads currsize/hits/misses from it.
    from drex import semantics, syntax

    for cache in [getattr(syntax, name) for name in worker.SYNTAX_CACHES] + [semantics._dca]:
        assert hasattr(cache, "cache_clear"), cache
        info = cache.cache_info()
        for field in ("currsize", "hits", "misses"):
            assert isinstance(getattr(info, field), int), (cache, field)


def test_machine_size_reads_built_machines():
    # The worker sizes each machine outside its per-call ``try``, reading
    # the rows, the programs and ``AcceptInfo.ops``; a change to their
    # shape must fail here rather than kill the worker.
    from drex.automaton import make_dfa, make_tagged_dfa
    from drex.charset import alphabet_from_chars
    from drex.syntax import parse

    r, t = parse("(a*)(a*)a")
    tagged = make_tagged_dfa(r, t)
    states, transitions, ops = worker.machine_size(tagged)
    assert (states, transitions) == (tagged.n_states, sum(map(len, tagged.transitions)))
    assert ops == len(tagged.initial_ops) + sum(len(e[2]) for row in tagged.transitions for e in row)
    assert ops > len(tagged.initial_ops)
    plain = make_dfa(r, alphabet_from_chars("ab"))
    assert worker.machine_size(plain) == (plain.n_states, sum(map(len, plain.transitions)), 0)
