"""Shared generators and reference helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from drex.anchors import AnchoredStream, inject_anchors
from drex.charset import (
    ANCHOR_BOW,
    ANCHOR_EOW,
    ANCHORS,
    FULL,
    CharSet,
    from_chars,
    is_anchor,
    single,
)
from drex.engine import MatchResult
from drex.semantics import SymbolPartition, Way, derive, nu_ways
from drex.submatch import (
    HIGHER,
    apply_program,
    bank_compare,
    disambiguate,
    normalize_step,
    teval,
)
from drex.syntax import (
    ANCHOR_RUN,
    EARLY,
    EMPTY,
    EPSILON,
    LATE,
    POLICY_POSIX,
    Regex,
    Sym,
    Tag,
    TagTable,
    alt,
    alt_terms,
    cat,
    comp,
    inter,
    is_nullable,
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


def rand_pattern(rnd, depth, groups_left):
    """Random pattern text: anchors, groups, lazy groups, ``&`` and ``~`` over ``ab``.

    ``groups_left[0]`` bounds the number of capturing groups drawn.
    """
    atoms = ["a", "b", "ab", "[ab]", "ε", ".", "^", "\\<", "\\>", "$"]
    if depth == 0:
        return rnd.choice(atoms)
    k = rnd.random()

    def inner():
        return rand_pattern(rnd, depth - 1, groups_left)

    if k < 0.28:
        return inner() + inner()
    if k < 0.48:
        return "(?:" + inner() + "+" + inner() + ")"
    if k < 0.60:
        return "(?:" + inner() + ")*"
    if k < 0.72 and groups_left[0] > 0:
        groups_left[0] -= 1
        return "(" + ("?l" if rnd.random() < 0.3 else "") + inner() + ")"
    if k < 0.80:
        return "(?:" + inner() + "&" + inner() + ")"
    if k < 0.86:
        return "~(?:" + inner() + ")"
    return inner()


def rand_tagged_pattern(rnd, depth, groups_left):
    """Random pattern text with groups over ``ab``, for the exhaustive oracle.

    Star bodies always consume input, so the oracle's empty-pass rule
    coincides with tag evaluation.
    """
    leaf = ["a", "b", "ab", "(?:a+ε)", "(?:a+b)"]
    starrable = ["a", "b", "ab", "(?:a+b)"]
    if depth == 0:
        return rnd.choice(leaf)
    k = rnd.random()
    if k < 0.3:
        return (rand_tagged_pattern(rnd, depth - 1, groups_left)
                + rand_tagged_pattern(rnd, depth - 1, groups_left))
    if k < 0.5:
        return ("(?:" + rand_tagged_pattern(rnd, depth - 1, groups_left) + "+"
                + rand_tagged_pattern(rnd, depth - 1, groups_left) + ")")
    if k < 0.62:
        return "(?:" + rnd.choice(starrable) + ")*"
    if k < 0.88 and groups_left[0] > 0:
        groups_left[0] -= 1
        return ("(" + ("?l" if rnd.random() < 0.25 else "")
                + rand_tagged_pattern(rnd, depth - 1, groups_left) + ")")
    return rand_tagged_pattern(rnd, depth - 1, groups_left)


def strip_anchors(stream: AnchoredStream) -> str:
    """The text of an anchored stream: its symbols without the anchors."""
    return "".join(chr(c) for c in stream.symbols if not is_anchor(c))


def reference_match(m, text: str, stream_offsets: bool = False) -> MatchResult:
    """``tagged_dfa_match`` over a materialized stream: ``m.step`` over
    ``inject_anchors(text).symbols``, every op applied where it occurs,
    offsets mapped through ``boundary_origin``.  It applies each program
    through ``submatch.apply_program``, of which the loop runs an inline
    copy."""
    if m.anchored:
        stream = inject_anchors(text)
        symbols, origin = stream.symbols, stream.boundary_origin
    else:
        symbols, origin = [ord(c) for c in text], range(len(text) + 1)
    if stream_offsets:
        origin = range(len(symbols) + 1)
    n_slots = m.tags.num_tags
    store = {}
    apply_program(store, m.initial_ops, 0, n_slots)
    end = best = None  # match end, its cells
    state = 0
    for p in range(len(symbols) + 1):
        info = m.accepting.get(state)
        if info is not None:
            cells = store[info.bank] if n_slots else None
            if (end is None or m.policy == POLICY_POSIX
                    or (cells is not None and bank_compare(cells, best, m.tags) == HIGHER)):
                end, best = p, cells
        if p == len(symbols) or state == m.dead:
            break
        state, program = m.step(state, symbols[p])
        apply_program(store, program, p + 1, n_slots)
    return MatchResult.from_run(end, best, m.tags, origin.__getitem__)


def interpretive_match(r: Regex, tags: TagTable, policy: str, text: str) -> MatchResult:
    """``tagged_dfa_match`` of a tagged pattern on an anchored machine,
    made with no state table and no canonical store: the padded pattern
    reads bank 1, opened all unset, and is normalized at position 0;
    then each symbol of ``inject_anchors(text)`` is stepped with
    ``step_terms``, which evaluates the tags, and ``disambiguate``, on
    the run's own store at absolute positions.  At each position the
    nullable banks are ranked on that store as it stands, the earlier
    bank on a tie, and offsets map through ``boundary_origin``.  So
    every disambiguation, of a step or of acceptance, is made on the
    run's own store, where a machine makes it once per state, and no
    program is run."""
    stream = inject_anchors(text)
    origin = stream.boundary_origin
    opened = {1: (None,) * tags.num_tags}
    state, _, store = normalize_step([(1, cat(r, ANCHOR_RUN))], tags, opened, 0)
    end = best = None  # match end, its cells
    for p in range(len(stream.symbols) + 1):
        cells = None
        for b, body in enumerate(state, 1):
            if not is_nullable(body):
                continue
            if cells is None or bank_compare(store[b], cells, tags) == HIGHER:
                cells = store[b]
        if cells is not None and (end is None or policy == POLICY_POSIX
                                  or bank_compare(cells, best, tags) == HIGHER):
            end, best = p, cells
        if p == len(stream.symbols) or not state:
            break
        state, _, store = disambiguate(step_terms(state, stream.symbols[p]), tags, store, p + 1)
    return MatchResult.from_run(end, best, tags, origin.__getitem__)


def apply_parallel(store, rebuilds, pos: int, n_slots: int) -> None:
    """Rebuilds ``(dst, src, writes)``, each ``dst`` once, in their
    parallel meaning: every new bank is computed from a snapshot of the
    store taken before any is assigned, so their order does not matter."""
    old = dict(store)
    for dst, src, writes in rebuilds:
        cells = list(old[src]) if src is not None else [None] * n_slots
        for slot, offset in writes:
            cells[slot] = pos + offset
        store[dst] = tuple(cells)


def assert_reads_defined(m) -> None:
    """Check statically that a step's ``src`` is None or a bank defined on
    every path from the start state that reaches the edge; the result
    bank of an accepting state is defined on every path that reaches it."""
    defined = set()
    for dst, src, _ in m.initial_ops:
        assert src is None or src in defined, m.initial_ops
        defined.add(dst)
    live = {0: frozenset(defined)}
    work = [0]
    while work:
        i = work.pop()
        for _, j, program in m.transitions[i]:
            defined = set(live[i])
            for dst, src, _ in program:
                assert src is None or src in defined, (i, j, program)
                defined.add(dst)
            keep = frozenset(defined)
            if j not in live:
                live[j] = keep
                work.append(j)
            elif live[j] - keep:
                live[j] &= keep
                work.append(j)
    for i, info in m.accepting.items():
        if info.bank is not None:
            assert info.bank in live[i], (i, info.bank)


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
    entries: tuple[tuple[Optional[int], Way], ...] = ()

    def __bool__(self) -> bool:
        return self.kind != NOT_NULLABLE


def nullify(r, pos: int = 0) -> NullifyResult:
    """Decide the empty-string membership, reporting memory outcomes.

    ``r`` is a tree or a tagged state, the tuple of its bank bodies.
    Each entry names the bank whose body is nullable (None for a tree)
    together with the slot writes produced by nulling its tags at
    ``pos``.
    """
    ways: list[tuple[Optional[int], Way]] = []
    for owner, body in enumerate(r, 1) if isinstance(r, tuple) else [(None, r)]:
        ways += [(owner, w) for w in nu_ways(body, pos)]
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


def step_terms(state: tuple, cp: int) -> list[tuple[int, Regex]]:
    """The ``(bank, term)`` list a step of a tagged state hands to
    disambiguation, taken as the machines take it: each bank body
    derived at offset -1, each term evaluated at 0."""
    return [(b, u) for b, body in enumerate(state, 1)
            for t in alt_terms(derive(body, cp, -1))
            for u in alt_terms(teval(t, 0)) if u != EMPTY]


def derive_string(r: Regex, symbols, start_pos: int = 0) -> Regex:
    """Left fold of ``derive`` along a symbol sequence.

    ``symbols`` may be a str (taken as code points) or an iterable of
    ints.  The position increments after each consumed symbol.
    """
    pos = start_pos
    for s in symbols:
        cp = ord(s) if isinstance(s, str) else s
        r = derive(r, cp, pos)
        pos += 1
    return r


# Anchor-sensitive combinators.  Exactly one (anything) symbol, repeated:
# the top of the prefix lattice.
_ANY_ONE = Sym(FULL)
ANY_STAR = star(_ANY_ONE)

_WB = single(ANCHOR_BOW).union(single(ANCHOR_EOW))


def exactly_symbol(cp: int) -> Regex:
    """A pattern matching the one-symbol string, tolerating no anchors."""
    others = FULL.difference(single(cp))
    return inter([comp(cat(sym(others), ANY_STAR)), sym(single(cp))])


def forbid_anchor_prefix(r: Regex) -> Regex:
    """Match like ``r`` but refuse any anchor at the current position."""
    return inter([comp(cat(sym(ANCHORS), ANY_STAR)), r])


def forbid_word_boundary(r: Regex) -> Regex:
    """Match like ``r`` but refuse a word boundary at the current position."""
    return inter([comp(cat(sym(_WB), ANY_STAR)), r])


def require_word_boundary_between(s: Regex, t: Regex) -> Regex:
    """Concatenate ``s`` and ``t`` with a mandatory word boundary between."""
    return cat(s, cat(sym(_WB), t))
