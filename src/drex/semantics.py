"""Nullability, symbol derivatives, and derivative-class partitions.

Everything here is a pure function over canonical trees.  Position
values are plain integers supplied by the caller; a derivative taken at
position ``p`` stamps ``p`` into the slot writes it emits for every tag
it crosses.  Fresh banks created by copy-on-distribution come from a
caller-supplied allocator so one matching step stays deterministic.
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
    Bank,
    BankAlloc,
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
    bank,
    cat,
    comp,
    inter,
    is_nullable,
    writes_chain,
    _merge_writes,
)

# A "way" to accept the empty string: the owning bank (None below a bank
# head) plus the slot writes accumulated by nulling tags on that path.
Way = tuple[Optional[int], tuple[tuple[int, int], ...]]


def _combine_ways(a: Way, b: Way) -> Way:
    bank_a, wa = a
    bank_b, wb = b
    owner = bank_a if bank_a is not None else bank_b
    return owner, _merge_writes(wa, wb)


def nu_ways(r: Regex, pos: int) -> list[Way]:
    """All distinct memory outcomes of accepting the empty string."""
    if isinstance(r, (Empty, Sym)):
        return []
    if isinstance(r, Eps):
        return [(None, ())]
    if isinstance(r, Star):
        return [(None, ())]
    if isinstance(r, Tag):
        return [(None, ((r.index, pos),))]
    if isinstance(r, Write):
        return [(None, ((r.slot, r.value),))]
    if isinstance(r, Bank):
        out = []
        for owner, w in nu_ways(r.body, pos):
            out.append((r.bank, _merge_writes(r.writes, w)))
        return _dedup(out)
    if isinstance(r, Cat):
        left = nu_ways(r.head, pos)
        if not left:
            return []
        right = nu_ways(r.tail, pos)
        return _dedup([_combine_ways(a, b) for a in left for b in right])
    if isinstance(r, Alt):
        out: list[Way] = []
        for t in r.terms:
            out.extend(nu_ways(t, pos))
        return _dedup(out)
    if isinstance(r, Inter):
        acc: list[Way] = [(None, ())]
        for t in r.terms:
            ways = nu_ways(t, pos)
            if not ways:
                return []
            acc = [_combine_ways(a, b) for a in acc for b in ways]
        return _dedup(acc)
    if isinstance(r, Not):
        # The complement of a tagged language ignores memory.
        return [] if nu_ways(r.body, pos) else [(None, ())]
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


def derive(r: Regex, cp: int, pos: int = 0, alloc: Optional[BankAlloc] = None) -> Regex:
    """The derivative of ``r`` with respect to one working-alphabet symbol.

    Tags crossed on the way emit pending slot writes stamped with
    ``pos``; bank copies created by distributing over a union draw fresh
    ids from ``alloc`` (one is created from the tree when omitted).
    """
    if alloc is None:
        alloc = BankAlloc.after(r)
    return _derive(r, cp, pos, alloc)


def _derive(r: Regex, cp: int, pos: int, alloc: BankAlloc) -> Regex:
    if isinstance(r, (Empty, Eps, Tag, Write)):
        return EMPTY
    if isinstance(r, Sym):
        if cp in r.chars:
            return EPSILON
        if r.transparent and is_anchor(cp):
            return r
        return EMPTY
    if isinstance(r, Star):
        return cat(_derive(r.body, cp, pos, alloc), r)
    if isinstance(r, Cat):
        parts = [cat(_derive(r.head, cp, pos, alloc), r.tail)]
        for owner, writes in nu_ways(r.head, pos):
            d = _derive(r.tail, cp, pos, alloc)
            piece = cat(writes_chain(writes), d) if writes else d
            if owner is not None:
                piece = bank(owner, (), piece, alloc)
            parts.append(piece)
        return alt(parts)
    if isinstance(r, Alt):
        return alt([_derive(t, cp, pos, alloc) for t in r.terms])
    if isinstance(r, Inter):
        return inter([_derive(t, cp, pos, alloc) for t in r.terms])
    if isinstance(r, Not):
        return comp(_derive(r.body, cp, pos, alloc))
    if isinstance(r, Bank):
        return bank(r.bank, r.writes, _derive(r.body, cp, pos, alloc), alloc, src=r.src)
    raise TypeError(f"not a Regex: {r!r}")


def derive_string(r: Regex, symbols, start_pos: int = 0) -> Regex:
    """Left fold of ``derive`` along a symbol sequence.

    ``symbols`` may be a str (taken as code points) or an iterable of
    ints.  The position increments after each consumed symbol.
    """
    pos = start_pos
    for s in symbols:
        cp = ord(s) if isinstance(s, str) else s
        r = derive(r, cp, pos, BankAlloc.after(r))
        pos += 1
    return r


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
    if isinstance(r, Bank):
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


def derivative_classes(r: Regex, alphabet: Alphabet = Alphabet()) -> SymbolPartition:
    """A partition refining the true derivative classes of ``r``.

    Equal derivatives are guaranteed within each block; distinct blocks
    may still share a derivative (the approximation may over-partition).
    """
    working = alphabet.working
    blocks = []
    for b in _dca(r):
        cut = b.intersect(working)
        if not cut.is_empty():
            blocks.append(cut)
    return SymbolPartition(tuple(blocks))
