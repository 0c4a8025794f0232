"""Shared generators and reference helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from drex.charset import CharSet, from_chars
from drex.semantics import SymbolPartition, Way, nu_ways
from drex.submatch import HIGHER, bank_compare
from drex.syntax import (
    EARLY,
    EMPTY,
    EPSILON,
    LATE,
    Regex,
    Tag,
    alt,
    banks_in_order,
    cat,
    comp,
    inter,
    order_key,
    star,
    sym,
)

from oracle import enumerate_matches

SYMS = "abc"


def rand_expr(rnd: random.Random, depth: int, syms: str = SYMS):
    """Random tag-free expression over a small alphabet."""
    if depth == 0:
        k = rnd.random()
        if k < 0.55:
            return sym(from_chars(rnd.choice(syms)))
        if k < 0.7:
            return sym(from_chars("".join(rnd.sample(syms, 2))))
        if k < 0.8:
            return EPSILON
        if k < 0.85:
            return EMPTY
        return sym(from_chars(rnd.choice(syms)))
    op = rnd.choices(
        ["cat", "alt", "star", "inter", "comp"], weights=[4, 4, 2, 1.5, 1], k=1
    )[0]
    if op == "cat":
        return cat(rand_expr(rnd, depth - 1, syms), rand_expr(rnd, depth - 1, syms))
    if op == "alt":
        return alt([rand_expr(rnd, depth - 1, syms), rand_expr(rnd, depth - 1, syms)])
    if op == "star":
        return star(rand_expr(rnd, depth - 1, syms))
    if op == "inter":
        return inter([rand_expr(rnd, depth - 1, syms), rand_expr(rnd, depth - 1, syms)])
    return comp(rand_expr(rnd, depth - 1, syms))


def rand_tagged(rnd: random.Random, depth: int, tags: list[int], syms: str = SYMS):
    """Random expression sprinkled with tag symbols (ids taken from ``tags``)."""
    if depth == 0 or (tags and rnd.random() < 0.25):
        if tags and rnd.random() < 0.6:
            i = tags.pop(0)
            kind = EARLY if rnd.random() < 0.7 else LATE
            return Tag(kind, i)
        k = rnd.random()
        if k < 0.6:
            return sym(from_chars(rnd.choice(syms)))
        if k < 0.75:
            return sym(from_chars("".join(rnd.sample(syms, 2))))
        if k < 0.9:
            return EPSILON
        return EMPTY
    op = rnd.choices(
        ["cat", "alt", "star", "inter", "comp"], weights=[5, 3, 2, 1, 0.7], k=1
    )[0]
    if op == "cat":
        return cat(rand_tagged(rnd, depth - 1, tags, syms),
                   rand_tagged(rnd, depth - 1, tags, syms))
    if op == "alt":
        return alt([rand_tagged(rnd, depth - 1, tags, syms),
                    rand_tagged(rnd, depth - 1, tags, syms)])
    if op == "star":
        return star(rand_tagged(rnd, depth - 1, tags, syms))
    if op == "inter":
        return inter([rand_tagged(rnd, depth - 1, tags, syms),
                      rand_tagged(rnd, depth - 1, tags, syms)])
    return comp(rand_tagged(rnd, depth - 1, tags, syms))


def strings_upto(syms: str, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(c) for c in itertools.product(syms, repeat=n))
    return out


def oracle_posix_result(r, table, s: str):
    """Reference first-most-longest result from the exhaustive oracle.

    Returns None (no match) or (consumed, group spans including spans for
    groups whose boundary tags stayed unset as None).
    """
    for l in range(len(s), -1, -1):
        banks = enumerate_matches(r, table, s[:l])
        if banks:
            best = None
            for b in banks:
                if best is None or bank_compare(b, best, table) == HIGHER:
                    best = b
            spans = [
                None if best[o] is None or best[c] is None else (best[o], best[c])
                for o, c in table.group_pairs
            ]
            return l, spans
    return None


NOT_NULLABLE = "not-nullable"
NULLABLE_PLAIN = "nullable"
NULLABLE_WITH_MEMORY = "nullable-with-memory"


@dataclass(frozen=True)
class NullifyResult:
    kind: str
    entries: tuple[Way, ...] = ()

    def __bool__(self) -> bool:
        return self.kind != NOT_NULLABLE


def nullify(r: Regex, pos: int = 0) -> NullifyResult:
    """Decide the empty-string membership, reporting memory outcomes.

    For tag-bearing expressions each entry names the bank of a nullable
    alternative together with the slot writes produced by nulling its
    tags at ``pos``.
    """
    ways = nu_ways(r, pos)
    if not ways:
        return NullifyResult(NOT_NULLABLE)
    if all(owner is None and not w for owner, w in ways):
        return NullifyResult(NULLABLE_PLAIN, tuple(ways))
    return NullifyResult(NULLABLE_WITH_MEMORY, tuple(ways))


def is_partition_of(part: SymbolPartition, universe: CharSet) -> bool:
    """Whether the blocks are non-empty, pairwise disjoint and cover ``universe``."""
    seen = CharSet()
    for b in part.blocks:
        if b.is_empty() or not seen.intersect(b).is_empty():
            return False
        seen = seen.union(b)
    return seen == universe


def equal_mod_banks(r1: Regex, r2: Regex) -> Optional[list[tuple[int, int]]]:
    """Structural equality after erasing bank ids and pending writes.

    Returns the positional bank pairing (banks of ``r1`` zipped with
    banks of ``r2`` in tree order) when equal, else ``None``.
    """
    if order_key(r1) != order_key(r2):
        return None
    return list(zip(banks_in_order(r1), banks_in_order(r2)))
