"""Exact work counts of one seed-1 round of each benchmark workload.

Timings drift with the machine; these counts do not.  The test runs
what the benchmark worker runs: the cases of
``perfbench/workloads.generate`` (pure data), their set-up through
``workloads.prepare`` (which compiles the ``dfa_scan`` machines), and
one round of the timed items' calls, with the caches of
``worker._caches()`` cleared before set-up and before each call.
Every machine set-up and the round create is recorded, with its memo,
so the memo's entries are read after ``build`` releases it.  ``rows``
counts the run-time rows that own storage: a state's row stays the
machine's shared blank until a run fills one of its entries.  ``fast``
counts the intervals that join a state's fast set, whose runs the loop
skips without a step, and ``sets`` the fast sets made: one for each
target and class that a filled entry reaches, though most gain no
member.  A change that moves a count updates ``TABLE`` and gives the
old and new rows, with the reason.
"""

import importlib
import sys
from pathlib import Path

import pytest

from drex import automaton, engine, semantics, submatch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
workloads = importlib.import_module("workloads")
worker = importlib.import_module("worker")

COLUMNS = ("machines", "states", "blocks", "edges", "ops",
           "derive", "teval", "classes", "canonical", "nu_ways", "partitions", "rows", "fast",
           "sets")

# Per workload, one seed-1 round, in the order of COLUMNS.
ROWS = {
    "lazy_submatch": (13, 504, 1629, 585, 241, 918, 454, 423, 295, 1102, 645, 502, 60, 501),
    "dfa_build": (14, 1598, 5965, 5965, 457, 7635, 144, 1586, 515, 3887, 1891, 0, 0, 0),
    "dfa_scan": (4, 141, 630, 630, 939, 412, 97, 89, 554, 390, 102, 41, 37, 40),
    "grep_lines": (9, 100, 421, 201, 0, 597, 0, 100, 0, 309, 253, 100, 107, 112),
}
TABLE = {w: dict(zip(COLUMNS, row)) for w, row in ROWS.items()}


def _counts(workload: str, workdir: str, monkeypatch) -> dict:
    made = []  # (machine, its memo)
    calls = {"canonical": 0, "nu_ways": 0}
    init = automaton.TaggedDfa.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append((self, self._memo))

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(automaton.TaggedDfa, "__init__", recording_init)
    monkeypatch.setattr(engine, "_canonical", counting("canonical", engine._canonical))
    ways = counting("nu_ways", semantics.nu_ways)
    for module in (semantics, submatch):
        monkeypatch.setattr(module, "nu_ways", ways)
    syntax_caches, dca = worker._caches()

    def clear():
        for cache in (*syntax_caches, dca):
            cache.cache_clear()

    cases = workloads.generate(workload, 1)
    workloads.write_files(cases, workdir)
    clear()
    for item in [it for it in workloads.prepare(cases) if it.timed]:
        clear()
        item.call()
    monkeypatch.undo()
    clear()
    out = dict.fromkeys(COLUMNS, 0)
    out["machines"] = len(made)
    for m, memo in made:
        out["states"] += m.n_states
        out["blocks"] += sum(len(row) for row in m.transitions)
        out["edges"] += sum(edge[1] is not None for row in m.transitions for edge in row)
        out["ops"] += len(m.initial_ops) + sum(len(e[2]) for row in m.transitions for e in row)
        out["rows"] += sum(row is not m._blank for row in m.rows)
        out["fast"] += sum(map(len, m.fast.values()))
        out["sets"] += len(m.fast)
        for key in memo:
            # A step key ends in its offset, a node's mask key in None, and
            # a class key is a state expression.
            if isinstance(key, tuple) and key and isinstance(key[-1], int):
                out["derive" if len(key) == 3 else "teval"] += 1
            elif isinstance(key, tuple) and len(key) == 2 and key[1] is None:
                out["partitions"] += 1
            else:
                out["classes"] += 1
    out.update(calls)
    return out


@pytest.mark.parametrize("workload", list(TABLE))
def test_round_work_counts(workload, tmp_path, monkeypatch):
    assert _counts(workload, str(tmp_path), monkeypatch) == TABLE[workload]
