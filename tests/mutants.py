"""The mutation-kill matrix: seeded bugs, each run against the test suite.

Each mutant names one file of ``src/drex``, an exact fragment of its
source, the replacement, and the roadmap item or acceptance criterion
it stands for.  For each mutant the script copies the tree to a
temporary directory, applies that one replacement, runs tier-1 (or the
mutant's own subset of test files) under a timeout, and prints one row
of the matrix: killed by how many tests (and which), survived, or timed
out.  A timeout counts as a kill, since a hanging suite is noticed.

Run from the root of a checkout (stdlib only; the suite needs pytest):

    python tests/mutants.py                            # every mutant
    python tests/mutants.py chain_drops_last_operand   # the named ones only
    python tests/mutants.py --timeout 300

pytest does not collect this file; ``test_mutants.py`` checks, in
tier-1, that each fragment occurs exactly once in today's source, so a
refactor that touches one restates its mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the tree
    fragment: str  # occurs exactly once in ``path``
    replacement: str
    stands_for: str
    tests: tuple[str, ...] = ()  # test files to run; () is all of tier-1


MUTANTS = (
    Mutant("boundary_no_eow_at_end", "src/drex/anchors.py",
           "(ANCHOR_EOW, prev == WORD and nxt != WORD),",
           "(ANCHOR_EOW, prev == WORD and nxt not in (WORD, EDGE)),",
           "item 19: a BOUNDARY rule missing end-of-word at the end of the text"),
    Mutant("late_slot_prefers_smaller", "src/drex/submatch.py",
           "return HIGHER if a2 > b2 else LOWER",
           "return HIGHER if a2 < b2 else LOWER",
           "item 19: a late slot that prefers the smaller value"),
    Mutant("unset_early_beats_set", "src/drex/submatch.py",
           'a2 = a if a is not None else float("inf")\n'
           '            b2 = b if b is not None else float("inf")',
           'a2 = a if a is not None else float("-inf")\n'
           '            b2 = b if b is not None else float("-inf")',
           "item 19 and item 13: an unset early slot beating a set one"),
    Mutant("states_keyed_by_expression", "src/drex/automaton.py",
           "key = (e, tuple(st.values()))",
           "key = e",
           "items 4 and 19: tagged states keyed by expression alone, not by their store"),
    Mutant("acceptance_tie_to_later_bank", "src/drex/automaton.py",
           "bank_compare(store[b], store[best], tags) == HIGHER",
           "bank_compare(store[b], store[best], tags) != -1",
           "item 19: acceptance ties going to the later bank"),
    Mutant("tied_later_end_replaces", "src/drex/automaton.py",
           "bank_compare(new, cells, tags) == HIGHER",
           "bank_compare(new, cells, tags) != -1",
           "item 19: non-posix policies letting a tied later end replace the result"),
    Mutant("scratch_bank_on_survivor", "src/drex/submatch.py",
           "scratch = 1 + max([len(state)] + [src for src, _ in rebuilds.values()])",
           "scratch = len(state)",
           "item 19: a scratch bank numbered onto a survivor"),
    Mutant("complement_always_nullable_way", "src/drex/semantics.py",
           "return [] if is_nullable(r.body) else [()]",
           "return [()]",
           "item 19: nu_ways giving every complement an empty way"),
    Mutant("chain_drops_last_operand", "src/drex/syntax.py",
           "return (join, terms) if len(terms) > 1 else terms[0]",
           "return (join, terms[:-1]) if len(terms) > 1 else terms[0]",
           "item 19 (PR 29 tree rules): chain dropping its last operand"),
    Mutant("flat_does_not_flatten", "src/drex/syntax.py",
           "flat.extend(t.terms)",
           "flat.append(t)",
           "item 19 (PR 29 tree rules): _flat not flattening; derivative and "
           "machine tests hang, so only the tree tests run",
           tests=("tests/test_syntax.py",)),
    Mutant("caret_reads_end_of_line", "src/drex/syntax.py",
           '"^": Sym(single(ANCHOR_BOL)),',
           '"^": Sym(single(ANCHOR_EOL)),',
           "item 19 (PR 29 tree rules): ^ read as end of line"),
    Mutant("teval_without_fixpoint", "src/drex/submatch.py",
           "if isinstance(head, Write) and head.value == pos:",
           "if False:",
           "item 19 (PR 29 tree rules): teval without its fixpoint"),
    Mutant("erase_memory_guard_inverted", "src/drex/syntax.py",
           "    if not has_memory(r):\n        return r\n    if isinstance(r, (Tag, Write)):",
           "    if has_memory(r):\n        return r\n    if isinstance(r, (Tag, Write)):",
           "item 19 (PR 29 tree rules): the inverted erase_memory guard"),
    Mutant("disambiguate_tie_to_later_term", "src/drex/submatch.py",
           "bank_compare(cells, best[body][2], tags) == HIGHER",
           "bank_compare(cells, best[body][2], tags) != -1",
           "item 19: disambiguate keeping the later of two terms whose cells tie; "
           "it changes programs and exports but no result"),
    Mutant("nu_ways_no_early_return", "src/drex/semantics.py",
           "            if not ways:\n                return []\n",
           "",
           "item 19: nu_ways without its early return; results stay, but the "
           "empty product costs more nu_ways calls (item 23's work counts)"),
    Mutant("from_run_end_unmapped", "src/drex/engine.py",
           "(0, at(end))",
           "(0, end)",
           "criteria 5 and 11 (from_run): the whole match's end reported as a stream position"),
    Mutant("from_run_half_set_group", "src/drex/engine.py",
           "a is None or b is None",
           "a is None",
           "criteria 5 and 11 (from_run): a group with one unset cell reported as matched"),
    Mutant("canonical_one_bank_p_to_0", "src/drex/engine.py",
           "else 1 if v == p else 0",
           "else 0 if v == p else 0",
           "item 21: the one-bank canonical store mapping p to 0, which merges states "
           "whose bank holds p with states whose bank holds an older value"),
    Mutant("canonical_ranks_from_three_values", "src/drex/engine.py",
           "if len(below) < 2:",
           "if len(below) < 3:",
           "item 21: a slot holding two distinct values below p left unranked, "
           "so both become 0"),
    Mutant("mask_cat_meets_tail_always", "src/drex/semantics.py",
           "if is_nullable(r.head):\n            p = meet_masks(",
           "if True:\n            p = meet_masks(",
           "item 17 (class masks): a Cat meeting its tail's classes even when its head "
           "is not nullable, which over-partitions but keeps every derivative"),
    Mutant("mask_atom_anchors_in_dead_block", "src/drex/semantics.py",
           "(c, anchors & ~c, working & ~(anchors | c))",
           "(c, working & ~c)",
           "item 17 (class masks): a Sym's foreign anchors merged into its dead block"),
    Mutant("mask_sweep_drops_last_edge", "src/drex/semantics.py",
           "for k in sorted(flips):",
           "for k in sorted(flips)[:-1]:",
           "item 17 (class masks): the sweep of a wide meet dropping its last run edge"),
    Mutant("row_of_its_own_per_state", "src/drex/automaton.py",
           "self.rows.append(self._blank)",
           "self.rows.append(list(self._blank))",
           "items 17 and 23: each new state given a row of its own, not the shared "
           "blank; results stay, but a machine no run reaches holds row storage"),
    Mutant("empty_state_joins_fast_set", "src/drex/automaton.py",
           "if (j == i and i != self.dead and cuts[k - 1] <= MAX_CODEPOINT",
           "if (j == i and cuts[k - 1] <= MAX_CODEPOINT",
           "item 12: ∅ joining a fast set; the loop stops at ∅ before it tests "
           "the set, so only a check of the sets sees it"),
    Mutant("run_program_not_applied", "src/drex/automaton.py",
           "for dst, _, writes in program:  # every rebuild is in place (see _fill)",
           "for dst, _, writes in ():  # every rebuild is in place (see _fill)",
           "item 12: a skipped run's program not applied at the run's end"),
    Mutant("fast_set_ignores_class", "src/drex/automaton.py",
           "cls = self.char_classes[k] if self.anchored else OTHER",
           "cls = OTHER",
           "item 12: an anchored machine keying its fast sets without the boundary "
           "class, so a run crosses a word boundary without its markers"),
    Mutant("posix_run_end_not_offered", "src/drex/automaton.py",
           "if posix and info is not None:  # the other policies keep the first offer",
           "if False:  # the other policies keep the first offer",
           "item 12: under posix, a skipped run at an accepting state not offering "
           "its last position"),
    Mutant("accepting_program_joins_any_policy", "src/drex/automaton.py",
           "and (self.policy == POLICY_POSIX or i not in self.accepting)))",
           "and True))",
           "item 12: an in-place program at an accepting state joining a fast set "
           "under pre-order or post-order, so the run offers none of its positions"),
    Mutant("marks_every_symbol", "src/drex/automaton.py",
           "if s != k:  # a marker: the text offset stays behind",
           "if True:  # a marker: the text offset stays behind",
           "item 22: the loop recording every stepped symbol as a marker, so a "
           "position maps to an offset short by the characters stepped before it"),
    Mutant("marks_count_the_one_at_q", "src/drex/automaton.py",
           "q - bisect_left(marks, q)",
           "q - bisect_right(marks, q)",
           "item 22: the offset map counting the marker at position q itself, "
           "so a position before a boundary's markers maps one offset back"),
)


def _ignore(_dir, names):
    return [n for n in names if n in (".git", "__pycache__", ".pytest_cache", ".hypothesis")
            or n.startswith(".perfbench-")]


def _summary(output: str) -> tuple[int, list[str]]:
    """Failed or erroring tests in pytest's ``-rfE`` output: count and ids."""
    ids = re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    last = output.strip().splitlines()[-1] if output.strip() else ""
    count = sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", last))
    return count, ids


def run_mutant(mutant: Mutant, timeout: float) -> str:
    """Apply ``mutant`` to a copy of the tree, run its tests, return the row."""
    with tempfile.TemporaryDirectory(prefix="drex-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignore)
        target = tree / mutant.path
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.fragment) != 1:
            return f"{mutant.name}: fragment not found exactly once in {mutant.path}"
        target.write_text(source.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
                *(mutant.tests or ("tests",))]
        # A session of its own, so a timeout also ends the CLI subprocesses.
        proc = subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return f"{mutant.name}: killed (timed out after {timeout:g} s)"
    count, ids = _summary(output)
    scope = " ".join(mutant.tests) if mutant.tests else "tier-1"
    if count == 0 and proc.returncode == 0:
        return f"{mutant.name}: SURVIVED [{scope}]"
    shown = ", ".join(ids[:3]) + (", ..." if len(ids) > 3 else "")
    return f"{mutant.name}: killed by {count} [{scope}]: {shown}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per test run")
    args = ap.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    for mutant in MUTANTS:
        if not args.names or mutant.name in args.names:
            print(f"{run_mutant(mutant, args.timeout)}\n    stands for {mutant.stands_for}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
