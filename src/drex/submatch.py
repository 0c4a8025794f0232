"""Memory machinery: banks, slot writes, tag evaluation, disambiguation.

A tagged state is the ordered tuple of its bank bodies: bank ``i``
heads the ``i``-th body, and ``()`` is the dead state.  A store maps
bank ids to slot cells.  Between derivation and disambiguation a step
holds ``(bank, term)`` pairs: each term of a body's derivative reads
that body's bank, and its pending writes are the ``Write`` run that
starts it, each a step offset from derivation on (-1 the symbol just
read, 0 the position after it).  Tag evaluation converts tags that head
nullable paths into writes; disambiguation lays the pending runs over
the cells at the step's position, keeps the highest-priority bank of
every group of equal bodies, and returns the survivors' cells as the
next store, with the memory program that realizes them on a run's own
store: an ordered tuple of bank rebuilds ``(dst, src, writes)``.  Only
the matching loop runs a program (``apply_program``); a step computes
the next store directly and leaves the one it reads untouched.  A
match's spans are the tag values of its result bank, read off by
``engine.MatchResult.from_run``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .semantics import nu_ways
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
    TagTable,
    Write,
    alt,
    alt_terms,
    cat,
    inter,
    is_nullable,
    order_key,
    show,
    writes_chain,
    _show,
    _split_write_run,
    EARLY,
)

UNSET = None

Cells = tuple[Optional[int], ...]
Store = dict[int, Cells]


# --- memory programs --------------------------------------------------------

Rebuild = tuple[int, Optional[int], tuple[tuple[int, int], ...]]
Program = tuple[Rebuild, ...]


def apply_program(store: Store, program: Program, pos: int, n_slots: int) -> None:
    """Run a memory program against ``store`` at position ``pos``.

    Each step ``(dst, src, writes)`` in turn makes ``store[dst]`` the
    cells of ``store[src]``, all unset when ``src`` is None, with each
    ``(slot, offset)`` of ``writes`` set to ``pos + offset``: offset -1
    names the position of the symbol that fired the transition, 0 the
    position after it.
    """
    for dst, src, writes in program:
        cells = store[src] if src is not None else (UNSET,) * n_slots
        store[dst] = apply_writes(cells, writes, pos)


def apply_writes(cells: Cells, writes: Iterable[tuple[int, int]], pos: int) -> Cells:
    """``cells`` with each ``(slot, offset)`` of ``writes`` set to ``pos + offset``."""
    out = list(cells)
    for slot, offset in writes:
        out[slot] = pos + offset
    return tuple(out)


# --- bank order -------------------------------------------------------------

HIGHER = 1
EQUAL = 0
LOWER = -1


def bank_compare(c1: Cells, c2: Cells, tags: TagTable) -> int:
    """Priority order over banks, decided by the first differing slot.

    An early slot prefers the smaller recorded position, a late slot the
    larger one; an unset slot loses to any recorded value either way.
    """
    for k in range(len(c1)):
        a, b = c1[k], c2[k]
        if a == b:
            continue
        if tags.kinds[k] == EARLY:
            a2 = a if a is not None else float("inf")
            b2 = b if b is not None else float("inf")
            return HIGHER if a2 < b2 else LOWER
        a2 = a if a is not None else float("-inf")
        b2 = b if b is not None else float("-inf")
        return HIGHER if a2 > b2 else LOWER
    return EQUAL


# --- tag evaluation ---------------------------------------------------------


def _eps_plus(r: Regex, pos: int, memo: Optional[dict]) -> Regex:
    # (eps + nullify-writes ...) over the ways of ``r`` evaluated at
    # ``pos``: the plain epsilon is absorbed whenever a way carries
    # writes, preferring recorded positions.
    return alt([EPSILON] + [writes_chain(w) for w in nu_ways(teval(r, pos, memo), pos) if w])


def teval(r: Regex, pos: int, memo: Optional[dict] = None) -> Regex:
    """Convert every tag heading a nullable path into a slot write at ``pos``.

    Language-preserving and idempotent.  The engine evaluates each term
    of a step: the new writes join the term's pending run, and a union
    that comes out holds one term per way, each reading the term's bank.
    ``memo`` maps (node, position) to the evaluation of every inner node
    met, so one memo may serve many calls (a machine's steps share one,
    ``TaggedDfa._memo``); without it nothing is kept.
    """
    kind = type(r)
    if kind is Empty or kind is Eps or kind is Sym or kind is Write or kind is Not:
        return r  # a complement holds no memory
    if memo is None:
        return _teval(r, pos, None)
    key = (r, pos)
    e = memo.get(key)
    if e is None:
        e = memo[key] = _teval(r, pos, memo)
    return e


def _teval(r: Regex, pos: int, memo: Optional[dict]) -> Regex:
    kind = type(r)
    if kind is Tag:
        return Write(r.index, pos)
    if kind is Star:
        return cat(_eps_plus(r.body, pos, memo), r)
    if kind is Alt:
        return alt([teval(t, pos, memo) for t in r.terms])
    if kind is Inter:
        return inter([teval(t, pos, memo) for t in r.terms])
    if kind is Cat:
        head, tail = r.head, r.tail
        head_kind = type(head)
        if head_kind is Tag or head_kind is Write:
            if head_kind is Write and head.value == pos:
                # A write stamped with this evaluation's position marks
                # a subterm it already produced: fixpoint.  (The engine
                # derives at offset -1 and evaluates at offset 0, so
                # fresh input never carries an offset-0 write.)
                return r
            return cat(teval(head, pos, memo), teval(tail, pos, memo))
        if not is_nullable(head):
            return cat(teval(head, pos, memo), tail)
        return cat(_eps_plus(tail, pos, memo), cat(teval(head, pos, memo), tail))
    raise TypeError(f"not a Regex: {r!r}")


# --- disambiguation ---------------------------------------------------------


def disambiguate(
    terms: list[tuple[int, Regex]], tags: TagTable, store: Mapping[int, Cells], pos: int
) -> tuple[tuple[Regex, ...], Program, Store]:
    """Keep the highest-priority bank of each group of equal bodies.

    Each ``(bank, term)`` names the bank of ``store`` the term reads;
    several terms may read one bank.  Terms equal up to their pending
    writes, the ``Write`` run that starts them, form a group; the term
    whose bank ranks highest after its writes survives, the first one
    on a tie.  Pending writes are step offsets, laid over the cells at
    ``pos``, the position of this step's tag evaluation, to rank a bank.
    Returns ``(state, program, store)``: the survivors' bodies (write
    runs dropped) in canonical order, so bank ``i`` heads the ``i``-th;
    the program realizing them on a run's store, one rebuild for each
    survivor that moves or is written, the cells of the bank it reads
    with its run as it is, in the order ``order_rebuilds`` gives; and
    the survivors' cells, banks 1..k as that program leaves them.  The
    ``store`` passed in is left untouched.
    """
    best: dict[Regex, tuple[int, tuple, Cells]] = {}
    for src, t in terms:
        run, body = _split_write_run(t)
        cells = apply_writes(store[src], run, pos)
        if body not in best or bank_compare(cells, best[body][2], tags) == HIGHER:
            best[body] = (src, tuple(run), cells)
    state = tuple(sorted(best, key=order_key))
    rebuilds: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    next_store: Store = {}
    for new, body in enumerate(state, 1):
        src, writes, next_store[new] = best[body]
        if src != new or writes:
            rebuilds[new] = (src, writes)
    # Scratch banks lie above every survivor id and source, kept ones
    # included, so parking a cycle overwrites no survivor.
    scratch = 1 + max([len(state)] + [src for src, _ in rebuilds.values()])
    return state, order_rebuilds(rebuilds, scratch), next_store


def show_state(e) -> str:
    """Render a state: a tree, or a tagged state as ``β1·body+β2``."""
    if not isinstance(e, tuple):
        return show(e)
    return "+".join(f"\u03b2{i}" if body is EPSILON else f"\u03b2{i}\u00b7{_show(body, 2)}"
                    for i, body in enumerate(e, 1)) or "\u2205"


def order_rebuilds(rebuilds: dict[int, tuple[int, tuple]], scratch: int) -> Program:
    """Order parallel rebuilds ``dst -> (src, writes)`` into program steps.

    Each step reads its source before another step overwrites it.  A
    cycle is broken by parking one of its banks in a scratch bank,
    numbered upward from ``scratch``, and redirecting its reader there,
    so no bank is written twice.
    """
    pending = dict(rebuilds)
    steps: list[Rebuild] = []
    while pending:
        read = {src for dst, (src, _) in pending.items() if src != dst}
        ready = [dst for dst in pending if dst not in read]
        if not ready:  # only cycles remain
            parked = next(iter(pending))
            steps.append((scratch, parked, ()))
            pending = {d: (scratch if s == parked else s, w) for d, (s, w) in pending.items()}
            scratch += 1
        for dst in ready:
            steps.append((dst, *pending.pop(dst)))
    return tuple(steps)


def normalize_step(
    terms: list[tuple[int, Regex]], tags: TagTable, store: Mapping[int, Cells], pos: int,
    memo: Optional[dict] = None,
) -> tuple[tuple[Regex, ...], Program, Store]:
    """One engine step after a derivative: teval, then disambiguate.

    Each ``(bank, term)`` names the bank of ``store`` the term reads;
    its pending writes are step offsets (the engine derives at -1, tag
    evaluation stamps 0), laid over the store at ``pos``.  ``memo`` is
    ``teval``'s memo, shared by the steps of one machine.  Returns
    ``disambiguate``'s ``(state, program, store)``: the normalized state
    (the bodies of banks 1..k, no pendings), its memory program, and
    the cells of banks 1..k at ``pos``; ``store`` is left untouched.
    """
    terms = [(b, u) for b, t in terms for u in alt_terms(teval(t, 0, memo)) if u != EMPTY]
    return disambiguate(terms, tags, store, pos)

