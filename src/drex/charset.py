"""Symbol sets as sorted boundary lists.

A set of code points is stored as a sorted tuple of boundaries where
membership toggles: even indices open an included run, odd indices close
it.  This keeps Unicode-scale classes cheap: union, intersection and
complement are linear merges of the boundary lists, never per-symbol
loops.

The working universe is the Unicode scalar range plus six out-of-range
sentinels used for context-marker (anchor) symbols.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator

MAX_CODEPOINT = 0x10FFFF

# Context-marker symbols live just past the Unicode range, ordered so that
# a plain sort yields the canonical emission order at a text boundary.
ANCHOR_BOT = 0x110000  # beginning of text
ANCHOR_BOL = 0x110001  # beginning of line
ANCHOR_BOW = 0x110002  # beginning of word
ANCHOR_EOW = 0x110003  # end of word
ANCHOR_EOL = 0x110004  # end of line
ANCHOR_EOT = 0x110005  # end of text

ANCHOR_MIN = ANCHOR_BOT
ANCHOR_MAX = ANCHOR_EOT
UNIVERSE_END = ANCHOR_EOT + 1  # exclusive upper bound of everything


@dataclass(frozen=True)
class CharSet:
    """Immutable set of symbols (code points and anchor sentinels)."""

    bounds: tuple[int, ...] = ()

    def __contains__(self, cp: int) -> bool:
        # Inside exactly when an odd number of bounds lie at or below ``cp``.
        return bisect_right(self.bounds, cp) & 1 == 1

    def is_empty(self) -> bool:
        return not self.bounds

    def union(self, other: "CharSet") -> "CharSet":
        return _combine(self, other, (False, True, True, True))

    def intersect(self, other: "CharSet") -> "CharSet":
        return _combine(self, other, (False, False, False, True))

    def difference(self, other: "CharSet") -> "CharSet":
        return _combine(self, other, (False, False, True, False))

    def complement(self) -> "CharSet":
        """Complement within the full universe (base symbols + anchors)."""
        return FULL.difference(self)

    def count(self) -> int:
        n = 0
        for i in range(0, len(self.bounds), 2):
            n += self.bounds[i + 1] - self.bounds[i]
        return n

    def ranges(self) -> Iterator[tuple[int, int]]:
        """Yield inclusive (lo, hi) runs."""
        for i in range(0, len(self.bounds), 2):
            yield self.bounds[i], self.bounds[i + 1] - 1

    def codepoints(self) -> Iterator[int]:
        for lo, hi in self.ranges():
            yield from range(lo, hi + 1)

    def pick(self) -> int:
        """An arbitrary but deterministic member (the smallest)."""
        if not self.bounds:
            raise ValueError("empty symbol set has no members")
        return self.bounds[0]


def _combine(x: CharSet, y: CharSet, table: tuple[bool, bool, bool, bool]) -> CharSet:
    """One merge of the two boundary lists.

    ``table[2 * in_x + in_y]`` says whether a symbol inside ``x`` (or
    not) and inside ``y`` (or not) belongs to the result; a boundary is
    emitted only where that answer changes, so the output is canonical.
    """
    a, b = x.bounds, y.bounds
    na, nb = len(a), len(b)
    i = j = 0
    out: list[int] = []
    while i < na or j < nb:
        p = a[i] if j == nb or (i < na and a[i] <= b[j]) else b[j]
        if i < na and a[i] == p:
            i += 1
        if j < nb and b[j] == p:
            j += 1
        # Past an odd number of its boundaries, a point is inside a set.
        if table[2 * (i & 1) + (j & 1)] != len(out) & 1:
            out.append(p)
    return CharSet(tuple(out))


def from_ranges(ranges: Iterable[tuple[int, int]]) -> CharSet:
    """Build a set from inclusive (lo, hi) pairs, any order, may overlap."""
    acc = EMPTY_SET
    for lo, hi in ranges:
        if lo > hi:
            lo, hi = hi, lo
        acc = acc.union(CharSet((lo, hi + 1)))
    return acc


def from_chars(chars: str) -> CharSet:
    return from_ranges((ord(c), ord(c)) for c in chars)


def single(cp: int) -> CharSet:
    return CharSet((cp, cp + 1))


EMPTY_SET = CharSet()
FULL = CharSet((0, UNIVERSE_END))
ANCHORS = CharSet((ANCHOR_MIN, ANCHOR_MAX + 1))
ALL_BASE = CharSet((0, MAX_CODEPOINT + 1))
ASCII_BASE = CharSet((0, 128))


def is_anchor(cp: int) -> bool:
    return ANCHOR_MIN <= cp <= ANCHOR_MAX


@dataclass(frozen=True)
class Alphabet:
    """The working alphabet for automaton construction and matching.

    ``base`` is the set of ordinary input symbols; ``working`` adds the
    anchors on top when ``with_anchors`` is set.
    """

    base: CharSet = ALL_BASE
    with_anchors: bool = True
    working: CharSet = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "working", self.base.union(ANCHORS) if self.with_anchors else self.base)


def alphabet_from_chars(chars: str, with_anchors: bool = False) -> Alphabet:
    return Alphabet(base=from_chars(chars), with_anchors=with_anchors)
