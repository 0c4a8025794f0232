"""Lazy matching and the one matching step of drex.

``match_lazy`` is the plain recognizer (derive, then test nullability).
``start`` and ``step`` (derivative, tag evaluation, disambiguation) are
the only matching step: ``automaton.TaggedDfa`` takes its edges with
them.  ``match_full`` runs ``automaton.tagged_dfa_match`` on a
``TaggedDfa`` that is built as the input reaches new states and edges;
the CLI trace prints from that loop's run on the same kind of machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .anchors import ANCHOR_RUN
from .anchors import inject_anchors  # kept: perfbench/tracing.py wraps this name
from .semantics import derive
from .semantics import nu_ways  # kept: perfbench/tracing.py wraps this name
from .submatch import (
    POLICY_POSIX,
    Cells,
    Program,
    Store,
    apply_program,
    normalize_step,
)
from .syntax import (
    EMPTY,
    Regex,
    TagTable,
    alt_terms,
    cat,
    erase_memory,
    has_memory,
    is_nullable,
)

Span = tuple[int, int]


@dataclass(frozen=True)
class MatchResult:
    """Match verdict plus resolved submatch spans.

    ``groups[0]`` is the whole match; further entries follow the user
    group numbering.  ``consumed`` counts stream symbols (anchors
    included) up to the match end.
    """

    matched: bool
    bank: Optional[Cells] = None
    groups: tuple[Optional[Span], ...] = ()
    consumed: int = 0

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


def start(r: Regex, tags: TagTable, pad: bool) -> tuple[Regex | tuple, Store, Program]:
    """The state before the first symbol: state, bank store, program.

    With ``pad`` the pattern absorbs the trailing anchor run of the
    stream, which belongs to no atom of the pattern (leading anchors are
    skipped by the pattern's own transparent atoms, or by this same pad
    when the pattern consumes nothing).  When tags are tracked, bank 1
    is opened all unset, ``(1, None, ())``, and reads the pattern; the
    first tag evaluation runs at position 0, the state is the tuple of
    bank bodies, and the returned program has already been applied to
    the store.  When none are, the state is the pattern with its memory
    erased: tags never change the language, so a tag-free machine
    carries none.
    """
    if not tags.num_tags and has_memory(r):
        r = erase_memory(r)
    expr = cat(r, ANCHOR_RUN) if pad else r
    store: Store = {}
    program: Program = ()
    if tags.num_tags:
        program = ((1, None, ()),)
        apply_program(store, program, 0, tags.num_tags)
        expr, more = normalize_step([(1, expr)], tags, store, 0)
        program += more
    return expr, store, program


def step(
    expr, cp: int, pos: int, tags: TagTable, store: Store,
    memo: Optional[dict] = None,
) -> tuple[Regex | tuple, Program]:
    """Consume the symbol at ``pos``: derive, then normalize at ``pos + 1``.

    A machine tracking no tags holds no memory: its state is a tree, and
    the step is its derivative.  A tagged state is the tuple of its bank
    bodies; each body is derived, and each term of its derivative reads
    its bank.  The derivative is taken at position -1, so pending writes
    are step offsets, equal residuals stay equal trees at every depth,
    and ``memo``, ``derive``'s derivative memo shared by the steps of one
    machine, serves every inner node.  Normalization (tag evaluation,
    then disambiguation, which numbers the surviving banks 1..k) updates
    ``store`` in place and returns the program it applied.
    """
    if not tags.num_tags:
        return derive(expr, cp, -1, memo), ()
    terms = [(b, t) for b, body in enumerate(expr, 1)
             for t in alt_terms(derive(body, cp, -1, memo))]
    return normalize_step(terms, tags, store, pos + 1)


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
