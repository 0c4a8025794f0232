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

from .charset import ANCHORS, FULL, Alphabet, CharSet, interval_mask, is_anchor, mask_edges
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
    if isinstance(r, Alt):
        out: list[Way] = []
        for t in r.terms:
            out.extend(nu_ways(t, pos))
        return list(dict.fromkeys(out))
    if isinstance(r, (Cat, Inter)):
        # A way is sorted by slot, so merging it into () leaves it as it is.
        acc: list[Way] = [()]
        for t in (r.head, r.tail) if isinstance(r, Cat) else r.terms:
            ways = nu_ways(t, pos)
            if not ways:
                return []
            acc = [_merge_writes(a, b) for a in acc for b in ways]
        return list(dict.fromkeys(acc))
    if isinstance(r, Not):
        # The complement of a tagged language ignores memory.
        return [] if is_nullable(r.body) else [()]
    raise TypeError(f"not a Regex: {r!r}")


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
        # A marker outside the class is skipped.
        return r if is_anchor(cp) else EMPTY
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


def _minterms(parts) -> tuple[CharSet, ...]:
    """The common refinement of any number of partitions of ``FULL``.

    Each block of every part owns one bit, and each of its bounds
    toggles that bit.  One sweep over the bounds cuts ``FULL`` into
    intervals, and intervals with the same bits form one block.
    """
    parts = [p for p in parts if len(p) > 1]
    if len(parts) < 2:
        return parts[0] if parts else (FULL,)
    flips: dict[int, int] = {}
    for k, b in enumerate(b for p in parts for b in p):
        for x in b.bounds:
            flips[x] = flips.get(x, 0) ^ 1 << k
    # The mask is empty only before 0.  At each bound some part's block
    # changes, so neighbours differ in a bit: a block's runs never touch.
    groups: dict[int, list[int]] = {}
    mask = lo = 0
    for x in sorted(flips):
        if mask:
            groups.setdefault(mask, []).extend((lo, x))
        mask ^= flips[x]
        lo = x
    return tuple(CharSet(tuple(g)) for g in groups.values())


@lru_cache(maxsize=None)
def _dca(r: Regex) -> tuple[CharSet, ...]:
    if isinstance(r, (Empty, Eps, Tag, Write)):
        return (FULL,)
    if isinstance(r, Sym):
        # The atom's derivative distinguishes members, foreign anchors
        # (skipped) and foreign base symbols (dead).
        blocks = (
            r.chars,
            ANCHORS.difference(r.chars),
            FULL.difference(ANCHORS).difference(r.chars),
        )
        return tuple(b for b in blocks if not b.is_empty())
    if isinstance(r, (Star, Not)):
        return _dca(r.body)
    if isinstance(r, Cat):
        if is_nullable(r.head):
            return _minterms((_dca(r.head), _dca(r.tail)))
        return _dca(r.head)
    if isinstance(r, (Alt, Inter)):
        return _minterms(map(_dca, r.terms))
    raise TypeError(f"not a Regex: {r!r}")


def derivative_classes(r, alphabet: Alphabet = Alphabet()) -> SymbolPartition:
    """A partition refining the true derivative classes of ``r``.

    ``r`` is a tree or a tuple of trees (a tagged state's bank bodies),
    whose partitions meet.  Equal derivatives are guaranteed within each
    block; distinct blocks may still share a derivative (the
    approximation may over-partition).  The blocks partition ``FULL``
    and none is empty, so on a working alphabet that is ``FULL`` they
    are returned as they are.
    """
    working = alphabet.working
    blocks = _minterms(map(_dca, r if isinstance(r, tuple) else (r,)))
    if working == FULL:
        return SymbolPartition(blocks)
    cuts = [b.intersect(working) for b in blocks]
    return SymbolPartition(tuple(b for b in cuts if not b.is_empty()))


# ---------------------------------------------------------------------------
# Derivative classes as interval masks
# ---------------------------------------------------------------------------

# A meet folds pairwise while each step takes at most this many ``&``s.
# The fold costs the product of the sizes of the running meet and the
# next part, cheap while the meet stays small (a state's meets hold a
# few blocks each), but quadratic when it grows with every part: a
# 2,000-way alternation of symbols gains a block per part.  Past it, one
# sweep handles the rest, at a cost linear in the blocks' runs.  The
# value is not tuned: typical states' meets stay far below it, and any
# cutoff from 16 up to none at all builds them in the same time.
_PAIRWISE_ANDS = 64


def meet_masks(parts, working: int) -> tuple[int, ...]:
    """The common refinement of partitions of ``working`` given as masks:
    the pairwise ``&`` of their blocks, dropping zeros, folded part by
    part until a fold step would pass ``_PAIRWISE_ANDS``, and then
    ``_sweep_masks``.  The meet of no part is ``(working,)``."""
    # A part met twice splits nothing more: a state's bodies often share one.
    parts = list(dict.fromkeys(p for p in parts if len(p) > 1))
    if not parts:
        return (working,)
    acc = parts[0]
    for n in range(1, len(parts)):
        p = parts[n]
        if len(acc) * len(p) > _PAIRWISE_ANDS:
            return _sweep_masks([acc, *parts[n:]])
        acc = tuple(b for b in [x & y for x in acc for y in p] if b)
    return acc


def _sweep_masks(parts) -> tuple[int, ...]:
    """``_minterms``' sweep in interval space: each distinct block owns one
    bit, which flips at each edge of its runs (``charset.mask_edges``), and
    the intervals with equal bits form one block."""
    flips: dict[int, int] = {}
    # A block that recurs in another part splits nothing more.
    for j, b in enumerate(dict.fromkeys(b for p in parts for b in p)):
        for k in mask_edges(b):
            flips[k] = flips.get(k, 0) ^ 1 << j
    # Outside the working alphabet no block holds an interval.
    groups: dict[int, int] = {}
    member = lo = 0
    for k in sorted(flips):
        if member:
            groups[member] = groups.get(member, 0) | (1 << k) - (1 << lo)
        member ^= flips[k]
        lo = k
    return tuple(groups.values())


def class_masks(r: Regex, space: tuple, memo: dict) -> tuple[int, ...]:
    """``derivative_classes`` of the tree ``r``, as unsorted masks over the
    intervals between cut points (``charset.interval_mask``).

    ``space`` is ``(cuts, working, anchors)``: the sorted cuts, which
    hold every bound of every atom of ``r``, and the masks of the working
    alphabet and of its anchors.  The rules are ``_dca``'s, each within
    the working alphabet.  ``memo`` keeps the partition of every node
    that is not a leaf under ``(node, None)``.
    """
    kind = type(r)
    if kind is Empty or kind is Eps or kind is Tag or kind is Write:
        return (space[1],)
    key = (r, None)
    p = memo.get(key)
    if p is not None:
        return p
    if kind is Sym:
        cuts, working, anchors = space
        c = interval_mask(r.chars, cuts) & working
        p = tuple(b for b in (c, anchors & ~c, working & ~(anchors | c)) if b)
    elif kind is Star or kind is Not:
        p = class_masks(r.body, space, memo)
    elif kind is Cat:
        p = class_masks(r.head, space, memo)
        if is_nullable(r.head):
            p = meet_masks((p, class_masks(r.tail, space, memo)), space[1])
    elif kind is Alt or kind is Inter:
        p = meet_masks([class_masks(t, space, memo) for t in r.terms], space[1])
    else:
        raise TypeError(f"not a Regex: {r!r}")
    memo[key] = p
    return p
