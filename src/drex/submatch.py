"""Memory machinery: banks, slot writes, tag evaluation, disambiguation.

A match run owns a bank store (bank id -> slot cells); expressions carry
pending writes at their bank heads.  Tag evaluation converts tags that
head nullable paths into writes; disambiguation applies pendings, keeps
the highest-priority bank of every group of structurally equal
alternatives, and emits the memory program realizing the survivors: an
ordered tuple of bank rebuilds ``(dst, src, writes)``, ``apply_program``
runs one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .semantics import nu_ways
from .syntax import (
    EPSILON,
    Alt,
    Bank,
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
    bank,
    cat,
    comp,
    inter,
    is_nullable,
    order_key,
    writes_chain,
    _split_write_run,
    EARLY,
)

UNSET = None

POLICY_POSIX = "posix"
POLICY_PRE_ORDER = "pre-order"
POLICY_POST_ORDER = "post-order"

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
        cells = list(store[src]) if src is not None else [UNSET] * n_slots
        for slot, offset in writes:
            cells[slot] = pos + offset
        store[dst] = tuple(cells)


def apply_writes(cells: Cells, writes: Iterable[tuple[int, int]]) -> Cells:
    out = list(cells)
    for slot, value in writes:
        out[slot] = value
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
        if tags.kind(k) == EARLY:
            a2 = a if a is not None else float("inf")
            b2 = b if b is not None else float("inf")
            return HIGHER if a2 < b2 else LOWER
        a2 = a if a is not None else float("-inf")
        b2 = b if b is not None else float("-inf")
        return HIGHER if a2 > b2 else LOWER
    return EQUAL


# --- tag evaluation ---------------------------------------------------------


def _eps_plus(ways, pos: int) -> Regex:
    # (eps + nullify-writes ...): the plain epsilon is absorbed whenever
    # a way carries writes, preferring recorded positions.
    terms: list[Regex] = [EPSILON]
    for owner, writes in ways:
        if writes:
            piece: Regex = writes_chain(writes)
            if owner is not None:
                piece = Bank(owner, tuple(writes), EPSILON)
            terms.append(piece)
    return alt(terms)


def teval(r: Regex, pos: int) -> Regex:
    """Convert every tag heading a nullable path into a slot write at ``pos``.

    Language-preserving and idempotent.  A bank copied when a
    write-headed union distributes keeps the id of the bank it reads.
    """
    if isinstance(r, (Empty, Eps, Sym, Write)):
        return r
    if isinstance(r, Tag):
        return Write(r.index, pos)
    if isinstance(r, Bank):
        if any(v == pos for _, v in r.writes):
            # A pending write stamped with the current position marks a
            # subterm this evaluation already produced: fixpoint.  (The
            # engine stamps derivatives one position earlier, so fresh
            # input never carries current-position writes.)
            return r
        return bank(r.bank, r.writes, teval(r.body, pos))
    if isinstance(r, Star):
        prefix = _eps_plus(nu_ways(teval(r.body, pos), pos), pos)
        return cat(prefix, r)
    if isinstance(r, Not):
        return comp(teval(r.body, pos))
    if isinstance(r, Alt):
        return alt([teval(t, pos) for t in r.terms])
    if isinstance(r, Inter):
        return inter([teval(t, pos) for t in r.terms])
    if isinstance(r, Cat):
        head, tail = r.head, r.tail
        if isinstance(head, Write):
            run, rest = _split_write_run(r)
            if any(v == pos for _, v in run):
                return r
            return cat(writes_chain(run), teval(rest, pos))
        if isinstance(head, Tag):
            return cat(teval(head, pos), teval(tail, pos))
        if not is_nullable(head):
            return cat(teval(head, pos), tail)
        prefix = _eps_plus(nu_ways(teval(tail, pos), pos), pos)
        return cat(prefix, cat(teval(head, pos), tail))
    raise TypeError(f"not a Regex: {r!r}")


# --- disambiguation ---------------------------------------------------------


def disambiguate(
    r: Regex, tags: TagTable, store: Store, pos: int
) -> tuple[Regex, Program]:
    """Keep the highest-priority bank of each group of equal alternatives.

    Each top-level bank names the bank of ``store`` it reads; several
    alternatives may read one bank.  Alternatives structurally equal up
    to banks form a group (adjacent, as union terms are sorted); each
    group's bank that ranks highest after its pending writes survives.
    The survivors are numbered 1..k in term order.  Returns the pruned
    expression (pendings cleared) and its program against ``store``:
    one rebuild for each survivor that moves or is written, the cells
    of the bank it reads with its writes as slot offsets from ``pos``,
    the position of this step's tag evaluation, in the order
    ``order_rebuilds`` gives.
    """
    best: dict[tuple, tuple[Bank, Cells]] = {}
    pruned: list[Regex] = []
    for t in alt_terms(r):
        if not isinstance(t, Bank):
            pruned.append(t)
            continue
        key = order_key(t)
        cells = apply_writes(store[t.bank], t.writes)
        if key not in best or bank_compare(cells, best[key][1], tags) == HIGHER:
            best[key] = (t, cells)
    if not best:
        return r, ()
    rebuilds: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for new, (t, _) in enumerate(best.values(), 1):
        pruned.append(Bank(new, (), t.body))
        writes = tuple((slot, value - pos) for slot, value in t.writes)
        if any(offset not in (-1, 0) for _, offset in writes):
            raise AssertionError(f"write offsets {writes} out of range")
        if t.bank != new or writes:
            rebuilds[new] = (t.bank, writes)
    # Scratch banks lie above every survivor id and source, kept ones
    # included, so parking a cycle overwrites no survivor.
    scratch = 1 + max([len(best)] + [src for src, _ in rebuilds.values()])
    return alt(pruned), order_rebuilds(rebuilds, scratch)


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


def normalize_step(r: Regex, tags: TagTable, store: Store, pos: int) -> tuple[Regex, Program]:
    """One engine step after a derivative: teval, then disambiguate.

    Every bank of ``r`` names a bank of ``store``.  Returns the
    normalized expression (banks 1..k, no pendings) and its memory
    program, which has already been applied to ``store``.
    """
    r = teval(r, pos)
    r, program = disambiguate(r, tags, store, pos)
    apply_program(store, program, pos, tags.num_tags)
    return r, program


# --- submatch extraction ----------------------------------------------------


def extract_submatches(
    cells: Cells, tags: TagTable, origin: Optional[tuple[int, ...]] = None
) -> list[Optional[tuple[int, int]]]:
    """Group spans from a final bank, in user group order.

    Stream positions are translated to text offsets through ``origin``
    (identity when omitted); a group with an unset boundary is reported
    as unmatched.
    """
    spans: list[Optional[tuple[int, int]]] = []
    for open_tag, close_tag in tags.group_pairs:
        a, b = cells[open_tag], cells[close_tag]
        if a is None or b is None:
            spans.append(None)
        elif origin is None:
            spans.append((a, b))
        else:
            spans.append((origin[a], origin[b]))
    return spans
