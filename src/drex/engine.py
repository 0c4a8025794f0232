"""Lazy matching and the one matching step of drex.

``match_lazy`` is the plain recognizer (derive, then test nullability).
``start`` and ``step`` (derivative, tag evaluation, disambiguation) are
the only matching step, canonical store in and canonical store out:
``automaton.TaggedDfa`` interns what they return.  ``match_full`` runs
``automaton.tagged_dfa_match`` on a ``TaggedDfa`` that is built as the
input reaches new states and edges; the CLI trace prints from that
loop's run on the same kind of machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Optional

from .anchors import inject_anchors  # kept: perfbench/tracing.py wraps this name
from .semantics import derive
from .semantics import nu_ways  # kept: perfbench/tracing.py wraps this name
from .submatch import UNSET, Cells, Program, Store, normalize_step
from .syntax import (
    ANCHOR_RUN,
    EMPTY,
    POLICY_POSIX,
    Regex,
    TagTable,
    alt_terms,
    cat,
    erase_memory,
    is_nullable,
)

Span = tuple[int, int]


@dataclass(frozen=True)
class MatchResult:
    """Match verdict plus resolved submatch spans.

    ``groups[0]`` is the whole match; further entries follow the user
    group numbering.  ``consumed`` counts stream symbols (anchors
    included) up to the match end.  ``from_run`` makes every result.
    """

    matched: bool
    bank: Optional[Cells] = None
    groups: tuple[Optional[Span], ...] = ()
    consumed: int = 0

    @classmethod
    def from_run(cls, end: Optional[int], cells: Optional[Cells], tags: TagTable,
                 at: Callable[[int], int]) -> MatchResult:
        """The report of a run that ended at stream position ``end`` (None:
        no match) with result bank ``cells``: a group is its tag pair's
        cells, unmatched if either is unset, and ``at`` maps each position."""
        if end is None:
            return cls(False)
        groups: list[Optional[Span]] = [(0, at(end))]
        for open_tag, close_tag in tags.group_pairs:
            a, b = cells[open_tag], cells[close_tag]
            groups.append(None if a is None or b is None else (at(a), at(b)))
        return cls(True, cells, tuple(groups), end)

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "groups": [
                None if g is None else {"start": g[0], "end": g[1]}
                for g in self.groups
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def match_lazy(r: Regex, s) -> bool:
    """Whole-string recognition by iterated derivatives (no anchors).

    Every derivative is taken at position -1, as in ``step``, so one memo
    serves the whole run and a repeated (state, symbol) pair is derived once.
    """
    memo: dict = {}
    for c in s:
        cp = ord(c) if isinstance(c, str) else c
        r = derive(r, cp, -1, memo=memo)
        if r == EMPTY:
            return False
    return is_nullable(r)


def _canonical(store: Store, p: int) -> Store:
    """A store's banks at position ``p``, renamed per slot.

    In each slot, a value below ``p`` becomes its rank among that slot's
    values below ``p``, ``p`` itself becomes ``len(store)``, above every
    rank, and an unset cell stays unset.  Comparisons of banks and the
    step's writes (``p`` at offset -1, ``p + 1`` at offset 0) read only
    that order, which cells are unset and which hold ``p``, so two stores
    with the same canonical form disambiguate identically: as part of a
    tagged state's identity it keeps compiled decisions valid on every
    path that reaches the state.  The state then steps from position
    ``len(store)``, where ``p`` stood, so the form holds no absolute
    position.

    Every value is at most ``p``.  In ``step``, where ``p`` is one more
    than the source store's bank count ``k``, a value is one of the
    source's ranks ``0..k`` or a write of the step, ``p - 1`` or ``p``;
    in ``start`` (``p = 0``) it is a write at 0.  So one bank needs no
    ranking: unset stays unset, ``p`` becomes 1 and any other value 0.
    With more banks, only a slot holding two or more distinct values
    below ``p`` gets a rank table; any other slot maps as one bank does,
    with ``len(store)`` in place of 1.
    """
    k = len(store)
    if k == 1:
        (b, cells), = store.items()
        return {b: tuple([None if v is None else 1 if v == p else 0 for v in cells])}
    flat = {None: None, p: k}  # a value missing from a slot's table ranks 0
    tables = []
    for column in zip(*store.values()):
        below = set(column) - {None, p}
        if len(below) < 2:
            tables.append(flat)
        else:
            tables.append(dict(zip(sorted(below), range(len(below)))) | flat)
    return {b: tuple(map(dict.get, tables, cells, repeat(0))) for b, cells in store.items()}


def start(
    r: Regex, tags: TagTable, pad: bool, memo: Optional[dict] = None,
) -> tuple[Regex | tuple, Store, Program]:
    """The state before the first symbol: state, canonical store, program.

    With ``pad`` the pattern is followed by ``ANCHOR_RUN``, which absorbs
    the trailing anchor run of the stream: it belongs to no atom of the
    pattern (class atoms skip the leading markers they do not name, and
    so does this same pad when the pattern consumes nothing).  When tags
    are tracked, bank 1 is opened all unset, ``(1, None, ())``, and
    reads the pattern; the first tag evaluation runs at position 0, the
    state is the tuple of bank bodies, and the store is the canonical
    form of their cells, which the program makes on an empty store.
    ``memo`` is the machine's memo (see ``step``), so the first
    evaluation fills it too.  When none are tracked, the state is the
    pattern with its memory erased and the store is empty: tags never
    change the language, so a tag-free machine carries none.
    """
    if not tags.num_tags:
        r = erase_memory(r)
    expr = cat(r, ANCHOR_RUN) if pad else r
    if not tags.num_tags:
        return expr, {}, ()
    opened = {1: (UNSET,) * tags.num_tags}  # the initial program's first rebuild
    expr, program, store = normalize_step([(1, expr)], tags, opened, 0, memo)
    return expr, _canonical(store, 0), ((1, None, ()),) + program


def step(
    expr, cp: int, tags: TagTable, store: Mapping[int, Cells], memo: Optional[dict] = None,
) -> tuple[Regex | tuple, Program, Store]:
    """Consume one symbol from a canonical store; return the next state,
    its program and its canonical store, leaving ``store`` untouched.

    A machine tracking no tags holds no memory: its state is a tree, the
    step is its derivative, and its store stays empty.  A tagged state
    is the tuple of its bank bodies, and the symbol sits at position
    ``len(store)`` (see ``_canonical``).  Each body is derived, and each
    term of its derivative reads its bank.  The derivative is taken at
    position -1, so pending writes are step offsets, equal residuals
    stay equal trees at every depth, and tags are evaluated at offset 0,
    so ``memo``, shared by the steps of one machine, serves every inner
    node of both: ``derive`` keeps its derivatives there and ``teval``
    its evaluations.  Normalization (tag evaluation, then
    disambiguation, which numbers the surviving banks 1..k) runs at
    ``p = len(store) + 1``, and the survivors' cells are made canonical
    at ``p``.
    """
    if not tags.num_tags:
        return derive(expr, cp, -1, memo), (), store
    terms = [(b, t) for b, body in enumerate(expr, 1)
             for t in alt_terms(derive(body, cp, -1, memo))]
    p = len(store) + 1
    state, program, cells = normalize_step(terms, tags, store, p, memo)
    return state, program, _canonical(cells, p)


def match_full(
    r: Regex,
    tags: TagTable,
    s: str,
    policy: str = POLICY_POSIX,
    stream_offsets: bool = False,
) -> MatchResult:
    """Anchored-prefix matching with submatch extraction.

    The match always starts at the beginning of the text; candidates at
    every nullable point are ranked by the policy (longest for posix,
    bank priority otherwise).  Offsets are reported in text coordinates
    unless ``stream_offsets`` is set.  The run builds a fresh machine as
    it goes, over the full anchored alphabet and with no state bound: a
    run adds at most one state per symbol.
    """
    from .automaton import TaggedDfa, tagged_dfa_match  # automaton imports this module

    return tagged_dfa_match(TaggedDfa(r, tags, policy), s, stream_offsets)
