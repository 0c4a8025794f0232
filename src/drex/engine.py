"""Lazy matching: derivatives computed on the fly per input symbol.

``match_lazy`` is the plain recognizer (derive, then test nullability).
``match_full`` adds anchors and submatch memory: it injects anchor
symbols, runs ``step`` (derivative + tag evaluation + disambiguation)
per symbol, offers a candidate whenever the current expression is
nullable, and finally reports the winner's spans.  ``start``, ``step``
and the acceptance helpers are the one matching step of drex: the DFA
builders and the CLI trace run them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .anchors import ANCHOR_RUN, inject_anchors
from .semantics import Way, derive, nu_ways
from .submatch import (
    POLICY_POSIX,
    Cells,
    HIGHER,
    InitBank,
    Store,
    apply_ops,
    bank_compare,
    extract_submatches,
    normalize_step,
)
from .syntax import (
    EMPTY,
    Bank,
    BankAlloc,
    Regex,
    TagTable,
    cat,
    is_nullable,
)

Span = tuple[int, int]
# A match end (stream position) with the winning bank's cells.
Candidate = tuple[int, Optional[Cells]]


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
    """Whole-string recognition by iterated derivatives (no anchors)."""
    pos = 0
    for c in s:
        cp = ord(c) if isinstance(c, str) else c
        r = derive(r, cp, pos)
        pos += 1
        if r == EMPTY:
            return False
    return is_nullable(r)


def start(r: Regex, tags: TagTable, pad: bool) -> tuple[Regex, Store, list]:
    """The state before the first symbol: expression, bank store, ops.

    With ``pad`` the pattern absorbs the trailing anchor run of the
    stream, which belongs to no atom of the pattern (leading anchors are
    skipped by the pattern's own transparent atoms, or by this same pad
    when the pattern consumes nothing).  When tags are tracked, bank 1
    is opened and the first tag evaluation runs at position 0; the
    returned ops have already been applied to the store.
    """
    expr = cat(r, ANCHOR_RUN) if pad else r
    store: Store = {}
    ops: list = []
    if tags.num_tags:
        expr = Bank(1, (), expr)
        ops.append(InitBank(1))
        apply_ops(store, ops, tags.num_tags)
        expr, more = normalize_step(expr, tags, store, 0, BankAlloc.after(expr))
        ops.extend(more)
    return expr, store, ops


def step(
    expr: Regex, cp: int, pos: int, tags: TagTable, store: Store
) -> tuple[Regex, list]:
    """Consume the symbol at ``pos``: derive, then normalize at ``pos + 1``.

    Normalization (tag evaluation, disambiguation, bank compaction)
    updates ``store`` in place and returns the ops it applied.  Without
    tracked tags positions are irrelevant, so the derivative is taken at
    position 0 and equal residuals stay equal trees.
    """
    alloc = BankAlloc.after(expr)
    if not tags.num_tags:
        return derive(expr, cp, 0, alloc), []
    expr = derive(expr, cp, pos, alloc)
    if expr == EMPTY:
        return expr, []
    return normalize_step(expr, tags, store, pos + 1, alloc)


def best_way(
    ways: list[Way], base: int, store: Store, tags: TagTable
) -> Optional[tuple[Way, Optional[Cells]]]:
    """The accepting way whose bank ranks highest, with its cells.

    A way's write ``(slot, v)`` stamps position ``base + v``: the lazy
    engine passes absolute writes with base 0, a compiled machine
    relative ones with the current position.  Ways without an owning
    bank carry no memory and are skipped; None when no way qualifies.
    Without tracked tags every way is alike: the first one wins and no
    cells are computed.
    """
    if not tags.num_tags:
        return (ways[0], None) if ways else None
    best = None
    for way in ways:
        owner, writes = way
        if owner is None:
            continue
        cells = list(store[owner])
        for slot, v in writes:
            cells[slot] = base + v
        cells = tuple(cells)
        if best is None or bank_compare(cells, best[1], tags) == HIGHER:
            best = (way, cells)
    return best


def offer(best: Optional[Candidate], pos: int, cells: Optional[Cells],
          policy: str, tags: TagTable) -> Candidate:
    """The candidate kept after a match ending at ``pos`` (later than ``best``).

    Under posix the longer prefix always wins; the other policies keep
    the earlier candidate unless the new bank ranks higher.
    """
    if (best is None or policy == POLICY_POSIX
            or (cells is not None and bank_compare(cells, best[1], tags) == HIGHER)):
        return (pos, cells)
    return best


def match_result(best: Optional[Candidate], tags: TagTable,
                 origin: tuple[int, ...], stream_offsets: bool) -> MatchResult:
    """Spans of the winning candidate, in text offsets through ``origin``."""
    if best is None:
        return MatchResult(False)
    pos, cells = best
    groups: list[Optional[Span]] = [(0, pos if stream_offsets else origin[pos])]
    if tags.num_tags:
        groups.extend(extract_submatches(cells, tags, None if stream_offsets else origin))
    return MatchResult(True, cells, tuple(groups), pos)


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
    unless ``stream_offsets`` is set.
    """
    stream = inject_anchors(s)
    symbols = stream.symbols
    expr, store, _ = start(r, tags, pad=True)
    best: Optional[Candidate] = None
    pos = 0
    while True:
        found = best_way(nu_ways(expr, pos), 0, store, tags)
        if found is not None:
            best = offer(best, pos, found[1], policy, tags)
        if pos == len(symbols):
            break
        expr, _ = step(expr, symbols[pos], pos, tags, store)
        pos += 1
        if expr == EMPTY:
            break
    return match_result(best, tags, stream.boundary_origin, stream_offsets)
