"""Nullability, symbol derivatives, and derivative-class partitions.

Everything here is a pure function over canonical trees.  Position
values are plain integers supplied by the caller; a derivative taken at
position ``p`` stamps ``p`` into the slot writes it emits for every tag
it crosses.  Banks are no tree symbol: the engine derives each bank
body of a tagged state on its own.

The engine derives at position -1, so from derivation on a pending
write holds a step offset (-1 the symbol just read, 0 the position
after it).  A derivative then depends on node and symbol alone, and the
hash-consed nodes are shared by a machine's states, so one memo keyed by
(node, symbol, position) serves every inner node of every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .charset import ANCHORS, FULL, Alphabet, CharSet, is_anchor
from .syntax import (
    EMPTY,
    EPSILON,
    Alt,
    Cat,
    Empty,
    Eps,
    Inter,
    Not,
    Regex,
    Star,
    Sym,
    Tag,
    Write,
    alt,
    cat,
    comp,
    inter,
    is_nullable,
    writes_chain,
    _merge_writes,
)

# A "way" to accept the empty string: the slot writes accumulated by
# nulling tags on that path.  A tagged state's ways are those of its
# bank bodies.
Way = tuple[tuple[int, int], ...]


def nu_ways(r: Regex, pos: int) -> list[Way]:
    """All distinct memory outcomes of accepting the empty string."""
    if isinstance(r, (Empty, Sym)):
        return []
    if isinstance(r, (Eps, Star)):
        return [()]
    if isinstance(r, Tag):
        return [((r.index, pos),)]
    if isinstance(r, Write):
        return [((r.slot, r.value),)]
    if isinstance(r, Cat):
        left = nu_ways(r.head, pos)
        if not left:
            return []
        right = nu_ways(r.tail, pos)
        return _dedup([_merge_writes(a, b) for a in left for b in right])
    if isinstance(r, Alt):
        out: list[Way] = []
        for t in r.terms:
            out.extend(nu_ways(t, pos))
        return _dedup(out)
    if isinstance(r, Inter):
        acc: list[Way] = [()]
        for t in r.terms:
            ways = nu_ways(t, pos)
            if not ways:
                return []
            acc = [_merge_writes(a, b) for a in acc for b in ways]
        return _dedup(acc)
    if isinstance(r, Not):
        # The complement of a tagged language ignores memory.
        return [] if nu_ways(r.body, pos) else [()]
    raise TypeError(f"not a Regex: {r!r}")


def _dedup(ways: list[Way]) -> list[Way]:
    seen = set()
    out = []
    for w in ways:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def derive(r: Regex, cp: int, pos: int = 0, memo: Optional[dict] = None) -> Regex:
    """The derivative of ``r`` with respect to one working-alphabet symbol.

    Tags crossed on the way emit pending slot writes stamped with
    ``pos``; the engine passes -1, so each write is a step offset.
    ``memo`` maps (node, symbol, position) to the derivative of
    every inner node met, so one memo may serve many calls; a fresh one
    is used when omitted.
    """
    return _derive(r, cp, pos, {} if memo is None else memo)


def _derive(r: Regex, cp: int, pos: int, memo: dict) -> Regex:
    if isinstance(r, (Empty, Eps, Tag, Write)):
        return EMPTY
    if isinstance(r, Sym):
        if cp in r.chars:
            return EPSILON
        if r.transparent and is_anchor(cp):
            return r
        return EMPTY
    # Leaves are cheaper to derive than to look up; every inner node is
    # derived once per symbol and position.
    key = (r, cp, pos)
    d = memo.get(key)
    if d is not None:
        return d
    if isinstance(r, Star):
        d = cat(_derive(r.body, cp, pos, memo), r)
    elif isinstance(r, Cat):
        parts = [cat(_derive(r.head, cp, pos, memo), r.tail)]
        for writes in nu_ways(r.head, pos):
            rest = _derive(r.tail, cp, pos, memo)
            parts.append(cat(writes_chain(writes), rest))
        # A non-nullable head leaves one part, already canonical: alt([x]) is x.
        d = parts[0] if len(parts) == 1 else alt(parts)
    elif isinstance(r, Alt):
        d = alt([_derive(t, cp, pos, memo) for t in r.terms])
    elif isinstance(r, Inter):
        d = inter([_derive(t, cp, pos, memo) for t in r.terms])
    elif isinstance(r, Not):
        d = comp(_derive(r.body, cp, pos, memo))
    else:
        raise TypeError(f"not a Regex: {r!r}")
    memo[key] = d
    return d


# ---------------------------------------------------------------------------
# Derivative classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolPartition:
    """Disjoint symbol blocks covering the working alphabet.

    Within one block every symbol produces the identical derivative.
    """

    blocks: tuple[CharSet, ...]


def _tiling(blocks: tuple[CharSet, ...]) -> list[tuple[int, int]]:
    """(run end, block index) of every run of a partition, by run start."""
    runs = sorted((lo, hi, i) for i, b in enumerate(blocks)
                  for lo, hi in zip(b.bounds[::2], b.bounds[1::2]))
    return [(hi, i) for _, hi, i in runs]


def _meet(a: tuple[CharSet, ...], b: tuple[CharSet, ...]) -> tuple[CharSet, ...]:
    """The common refinement of two partitions of ``FULL``.

    One sweep over both tilings cuts ``FULL`` into intervals that lie in
    one block of each side and groups them by that pair of blocks.  The
    result lists every nonempty pairwise intersection, ``a``-major.
    """
    if len(a) == 1:
        return b
    if len(b) == 1:
        return a
    ta, tb = _tiling(a), _tiling(b)
    # Neighbouring intervals differ in the block of one side (the sets
    # are canonical), so the runs collected for a pair never touch.
    groups: dict[tuple[int, int], list[int]] = {}
    i = j = lo = 0
    while i < len(ta):
        (end_a, ka), (end_b, kb) = ta[i], tb[j]
        hi = min(end_a, end_b)
        groups.setdefault((ka, kb), []).extend((lo, hi))
        lo = hi
        i += end_a == hi
        j += end_b == hi
    return tuple(CharSet(tuple(groups[k])) for k in sorted(groups))


@lru_cache(maxsize=None)
def _dca(r: Regex) -> tuple[CharSet, ...]:
    if isinstance(r, (Empty, Eps, Tag, Write)):
        return (FULL,)
    if isinstance(r, Sym):
        if r.transparent:
            # The atom's derivative distinguishes members, foreign
            # anchors (skipped) and foreign base symbols (dead).
            blocks = [
                r.chars,
                ANCHORS.difference(r.chars),
                FULL.difference(ANCHORS).difference(r.chars),
            ]
        else:
            blocks = [r.chars, FULL.difference(r.chars)]
        return tuple(b for b in blocks if not b.is_empty())
    if isinstance(r, (Star, Not)):
        return _dca(r.body)
    if isinstance(r, Cat):
        if is_nullable(r.head):
            return _meet(_dca(r.head), _dca(r.tail))
        return _dca(r.head)
    if isinstance(r, (Alt, Inter)):
        acc = (FULL,)
        for t in r.terms:
            acc = _meet(acc, _dca(t))
        return acc
    raise TypeError(f"not a Regex: {r!r}")


def derivative_classes(r, alphabet: Alphabet = Alphabet()) -> SymbolPartition:
    """A partition refining the true derivative classes of ``r``.

    ``r`` is a tree or a tuple of trees (a tagged state's bank bodies),
    whose partitions meet.  Equal derivatives are guaranteed within each
    block; distinct blocks may still share a derivative (the
    approximation may over-partition).
    """
    working = alphabet.working
    acc = (FULL,)
    for t in r if isinstance(r, tuple) else (r,):
        acc = _meet(acc, _dca(t))
    blocks = []
    for b in acc:
        cut = b.intersect(working)
        if not cut.is_empty():
            blocks.append(cut)
    return SymbolPartition(tuple(blocks))
