"""Brute-force reference semantics for the test suite.

Everything here evaluates the denotation of an expression tree directly
by structural recursion over strings, with no sharing of code or
representation tricks with the derivative engine or the automata: this
module imports from drex only ``drex.charset`` and ``drex.syntax`` (the
tree definitions), never the ``semantics`` or ``automaton`` machinery.
It is exponential by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from drex.charset import is_anchor
from drex.syntax import (
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
    TagTable,
    Write,
)

Symbols = tuple[int, ...]


def _as_symbols(s) -> Symbols:
    if isinstance(s, str):
        return tuple(ord(c) for c in s)
    return tuple(s)


def member_naive(r: Regex, s) -> bool:
    """Direct structural membership test for ``s`` in the denoted language.

    Tags, banks and pending writes all denote the empty-string language.
    Concatenation tries every split; star recursion peels a non-empty
    prefix, so it terminates.
    """
    w = _as_symbols(s)
    memo: dict[tuple[Regex, int, int], bool] = {}

    def match(r: Regex, i: int, j: int) -> bool:
        key = (r, i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = out = _match(r, i, j)
        return out

    def _match(r: Regex, i: int, j: int) -> bool:
        if isinstance(r, Empty):
            return False
        if isinstance(r, (Eps, Tag, Write)):
            return i == j
        if isinstance(r, Sym):
            if i == j:
                return False
            if w[j - 1] not in r.chars:
                return False
            if not r.transparent:
                return j == i + 1
            return all(
                is_anchor(w[k]) and w[k] not in r.chars for k in range(i, j - 1)
            )
        if isinstance(r, Cat):
            return any(
                match(r.head, i, k) and match(r.tail, k, j) for k in range(i, j + 1)
            )
        if isinstance(r, Alt):
            return any(match(t, i, j) for t in r.terms)
        if isinstance(r, Inter):
            return all(match(t, i, j) for t in r.terms)
        if isinstance(r, Not):
            return not match(r.body, i, j)
        if isinstance(r, Star):
            if i == j:
                return True
            return any(
                match(r.body, i, k) and match(r, k, j) for k in range(i + 1, j + 1)
            )
        raise TypeError(f"not a Regex: {r!r}")

    return match(r, 0, len(w))


@dataclass(frozen=True)
class LanguageSample:
    """The members of a language restricted to bounded-length strings."""

    alphabet: tuple[int, ...]
    max_len: int
    members: frozenset[Symbols]

    def __contains__(self, s) -> bool:
        return _as_symbols(s) in self.members

    def as_strings(self) -> set[str]:
        return {"".join(chr(c) for c in m) for m in self.members}


_ENUM_GUARD = 200_000


def _universe(alphabet: Sequence[int], max_len: int) -> list[Symbols]:
    total, layer = 1, 1
    for _ in range(max_len):
        layer *= len(alphabet)
        total += layer
        if total > _ENUM_GUARD:
            raise ValueError(
                f"enumeration of {len(alphabet)}^<= {max_len} strings exceeds guard"
            )
    out: list[Symbols] = [()]
    frontier: list[Symbols] = [()]
    for _ in range(max_len):
        frontier = [s + (a,) for s in frontier for a in alphabet]
        out.extend(frontier)
    return out


def enumerate_language(r: Regex, max_len: int, alphabet) -> LanguageSample:
    """All strings up to ``max_len`` accepted per ``member_naive``."""
    syms = _as_symbols(alphabet)
    members = frozenset(s for s in _universe(syms, max_len) if member_naive(r, s))
    return LanguageSample(syms, max_len, members)


def language_upto(r: Regex, max_len: int, alphabet) -> frozenset[Symbols]:
    """The same bounded language computed bottom-up over string sets.

    A second, faster route to ``enumerate_language`` used by the large
    randomized suites; the two are cross-checked against each other in
    the tests.
    """
    syms = _as_symbols(alphabet)
    universe = frozenset(_universe(syms, max_len))
    memo: dict[Regex, frozenset[Symbols]] = {}

    def lang(r: Regex) -> frozenset[Symbols]:
        hit = memo.get(r)
        if hit is not None:
            return hit
        memo[r] = out = _lang(r)
        return out

    def _lang(r: Regex) -> frozenset[Symbols]:
        if isinstance(r, Empty):
            return frozenset()
        if isinstance(r, (Eps, Tag, Write)):
            return frozenset({()})
        if isinstance(r, Sym):
            finals = [c for c in syms if c in r.chars]
            if not r.transparent:
                return frozenset((c,) for c in finals)
            pad = [c for c in syms if is_anchor(c) and c not in r.chars]
            out = set()
            prefixes: list[Symbols] = [()]
            for _ in range(max_len):
                out.update(p + (c,) for p in prefixes for c in finals
                           if len(p) + 1 <= max_len)
                if not pad:
                    break
                prefixes = [p + (a,) for p in prefixes for a in pad]
            return frozenset(out)
        if isinstance(r, Cat):
            a, b = lang(r.head), lang(r.tail)
            return frozenset(
                u + v for u in a for v in b if len(u) + len(v) <= max_len
            )
        if isinstance(r, Alt):
            out = frozenset()
            for t in r.terms:
                out |= lang(t)
            return out
        if isinstance(r, Inter):
            out = universe
            for t in r.terms:
                out &= lang(t)
            return out
        if isinstance(r, Not):
            return universe - lang(r.body)
        if isinstance(r, Star):
            base = lang(r.body)
            acc = frozenset({()})
            frontier = acc
            while True:
                nxt = frozenset(
                    u + v
                    for u in frontier
                    for v in base
                    if v and len(u) + len(v) <= max_len
                )
                nxt -= acc
                if not nxt:
                    return acc
                acc |= nxt
                frontier = nxt
        raise TypeError(f"not a Regex: {r!r}")

    return lang(r)


# ---------------------------------------------------------------------------
# Exhaustive submatch enumeration
# ---------------------------------------------------------------------------

BankValues = tuple[Optional[int], ...]

_MATCH_GUARD_LEN = 4
_MATCH_GUARD_TAGS = 8


def enumerate_matches(r: Regex, tags: TagTable, s) -> set[BankValues]:
    """Every distinct final memory outcome of matching ``s`` completely.

    Each derivation of the string records, for every tag it crosses, the
    position of the crossing; a later crossing overwrites an earlier one
    (slot-overwrite semantics).  A starred subexpression that can accept
    the empty string additionally performs one final empty pass, which
    mirrors how tag evaluation stamps the tags of nullable star bodies.
    """
    w = _as_symbols(s)
    if len(w) > _MATCH_GUARD_LEN:
        raise ValueError(f"input longer than {_MATCH_GUARD_LEN} symbols")
    if tags.num_tags > _MATCH_GUARD_TAGS:
        raise ValueError(f"more than {_MATCH_GUARD_TAGS} tags")
    n_slots = tags.num_tags
    memo: dict[tuple[Regex, int, int, BankValues], frozenset[BankValues]] = {}

    def ways(r: Regex, i: int, j: int, b: BankValues) -> frozenset[BankValues]:
        key = (r, i, j, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = out = frozenset(_ways(r, i, j, b))
        return out

    def _set(b: BankValues, slot: int, value: int) -> BankValues:
        lst = list(b)
        lst[slot] = value
        return tuple(lst)

    def _ways(r: Regex, i: int, j: int, b: BankValues) -> set[BankValues]:
        if isinstance(r, Empty):
            return set()
        if isinstance(r, Eps):
            return {b} if i == j else set()
        if isinstance(r, Tag):
            return {_set(b, r.index, i)} if i == j else set()
        if isinstance(r, Write):
            return {_set(b, r.slot, r.value)} if i == j else set()
        if isinstance(r, Sym):
            return {b} if member_naive(r, w[i:j]) else set()
        if isinstance(r, Cat):
            out: set[BankValues] = set()
            for k in range(i, j + 1):
                for b1 in ways(r.head, i, k, b):
                    out |= ways(r.tail, k, j, b1)
            return out
        if isinstance(r, Alt):
            out = set()
            for t in r.terms:
                out |= ways(t, i, j, b)
            return out
        if isinstance(r, Inter):
            acc = {b}
            for t in r.terms:
                nxt: set[BankValues] = set()
                for b1 in acc:
                    nxt |= ways(t, i, j, b1)
                acc = nxt
                if not acc:
                    return set()
            return acc
        if isinstance(r, Not):
            blank = tuple([None] * n_slots)
            return set() if ways(r.body, i, j, blank) else {b}
        if isinstance(r, Star):
            return set(star_ways(r, i, j, b))
        raise TypeError(f"not a Regex: {r!r}")

    def trail(r: Star, pos: int, b: BankValues) -> set[BankValues]:
        # the final empty pass over a nullable body stamps its tags
        eps_ways = ways(r.body, pos, pos, b)
        return set(eps_ways) if eps_ways else {b}

    def star_ways(r: Star, i: int, j: int, b: BankValues) -> set[BankValues]:
        if i == j:
            return trail(r, j, b)
        out: set[BankValues] = set()
        for k in range(i + 1, j + 1):
            for b1 in ways(r.body, i, k, b):
                out |= star_ways(r, k, j, b1)
        return out

    blank = tuple([None] * n_slots)
    return set(ways(r, 0, len(w), blank))
