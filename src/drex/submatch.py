"""Memory machinery: banks, slot writes, tag evaluation, disambiguation.

A match run owns a bank store (bank id -> slot cells); expressions carry
pending writes at their bank heads.  Tag evaluation converts tags that
head nullable paths into writes; disambiguation applies pendings, keeps
the highest-priority bank of every group of structurally equal
alternatives, and emits the memory operations realizing the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .semantics import nu_ways
from .syntax import (
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
    banks_in_order,
)

UNSET = None

POLICY_POSIX = "posix"
POLICY_PRE_ORDER = "pre-order"
POLICY_POST_ORDER = "post-order"

Cells = tuple[Optional[int], ...]
Store = dict[int, Cells]


# --- memory operations ------------------------------------------------------


@dataclass(frozen=True)
class InitBank:
    bank: int


@dataclass(frozen=True)
class CopyBank:
    dst: int
    src: int


@dataclass(frozen=True)
class SetSlot:
    """Write the position ``pos + offset`` into one slot.

    ``pos`` is the position after the symbol that triggered the
    transition, so offset -1 names that symbol's own position and
    offset 0 the position after it (tag evaluation and acceptance).
    """

    bank: int
    slot: int
    offset: int


MemoryOp = object  # InitBank | CopyBank | SetSlot


def op_banks(op) -> tuple[int, ...]:
    """The banks a memory op writes or reads."""
    return (op.dst, op.src) if isinstance(op, CopyBank) else (op.bank,)


def apply_ops(store: Store, ops: Iterable[MemoryOp], pos: int, n_slots: int) -> None:
    """Run a memory-op program against ``store`` at position ``pos``."""
    for op in ops:
        # Slot writes are the most frequent op on a run, so they are tested first.
        if isinstance(op, SetSlot):
            cells = list(store[op.bank])
            cells[op.slot] = pos + op.offset
            store[op.bank] = tuple(cells)
        elif isinstance(op, CopyBank):
            store[op.dst] = store[op.src]
        elif isinstance(op, InitBank):
            store[op.bank] = (UNSET,) * n_slots
        else:
            raise TypeError(f"not a memory op: {op!r}")


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


def teval(r: Regex, pos: int, alloc: Optional[BankAlloc] = None) -> Regex:
    """Convert every tag heading a nullable path into a slot write at ``pos``.

    Language-preserving and idempotent.  Fresh banks created when a
    write-headed union distributes come from ``alloc``.
    """
    if alloc is None:
        alloc = BankAlloc.after(r)
    return _teval(r, pos, alloc)


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


def _teval(r: Regex, pos: int, alloc: BankAlloc) -> Regex:
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
        return bank(r.bank, r.writes, _teval(r.body, pos, alloc), alloc, src=r.src)
    if isinstance(r, Star):
        prefix = _eps_plus(nu_ways(_teval(r.body, pos, alloc), pos), pos)
        return cat(prefix, r)
    if isinstance(r, Not):
        return comp(_teval(r.body, pos, alloc))
    if isinstance(r, Alt):
        return alt([_teval(t, pos, alloc) for t in r.terms])
    if isinstance(r, Inter):
        return inter([_teval(t, pos, alloc) for t in r.terms])
    if isinstance(r, Cat):
        head, tail = r.head, r.tail
        if isinstance(head, Write):
            run, rest = _split_write_run(r)
            if any(v == pos for _, v in run):
                return r
            return cat(writes_chain(run), _teval(rest, pos, alloc))
        if isinstance(head, Tag):
            return cat(_teval(head, pos, alloc), _teval(tail, pos, alloc))
        if not is_nullable(head):
            return cat(_teval(head, pos, alloc), tail)
        prefix = _eps_plus(nu_ways(_teval(tail, pos, alloc), pos), pos)
        return cat(prefix, cat(_teval(head, pos, alloc), tail))
    raise TypeError(f"not a Regex: {r!r}")


# --- disambiguation ---------------------------------------------------------


def disambiguate(
    r: Regex, tags: TagTable, store: Store, pos: int
) -> tuple[Regex, list[MemoryOp]]:
    """Resolve ambiguous alternatives by bank priority.

    Pending writes are applied to working copies of the banks; among
    top-level alternatives that are structurally equal up to banks only
    the highest-priority bank survives.  Returns the pruned expression
    (pendings cleared) and the memory operations that realize the
    surviving banks against ``store``; slot writes are offsets from
    ``pos``, the position of this step's tag evaluation.
    """
    terms = alt_terms(r)
    if not any(isinstance(t, Bank) for t in terms):
        return r, []
    groups: dict[tuple, list[tuple[int, Bank]]] = {}
    passthrough: list[tuple[int, Regex]] = []
    for idx, t in enumerate(terms):
        if isinstance(t, Bank):
            groups.setdefault(order_key(t), []).append((idx, t))
        else:
            passthrough.append((idx, t))

    def cells_of(t: Bank) -> Cells:
        base = store[t.src if t.src is not None else t.bank]
        return apply_writes(base, t.writes)

    keep: list[tuple[int, Bank]] = []
    for group in groups.values():
        best_idx, best = group[0]
        best_cells = cells_of(best)
        for idx, t in group[1:]:
            c = cells_of(t)
            if bank_compare(c, best_cells, tags) == HIGHER:
                best_idx, best, best_cells = idx, t, c
        keep.append((best_idx, best))

    # All copies first: a surviving original bank may be the source of a
    # surviving copy, so its own writes must not land before the copy.
    ops: list[MemoryOp] = []
    keep.sort(key=lambda kt: kt[0])
    for _, t in keep:
        if t.src is not None:
            ops.append(CopyBank(t.bank, t.src))
    for _, t in keep:
        for slot, value in t.writes:
            offset = value - pos
            if offset not in (-1, 0):
                raise AssertionError(f"write offset {offset} out of range")
            ops.append(SetSlot(t.bank, slot, offset))
    pruned: list[tuple[int, Regex]] = list(passthrough)
    for idx, t in keep:
        pruned.append((idx, Bank(t.bank, (), t.body, None)))
    pruned.sort(key=lambda it: it[0])
    return alt(p for _, p in pruned), ops


def compact_banks(r: Regex) -> tuple[Regex, list[tuple[int, int]]]:
    """Renumber the banks of a disambiguated expression densely from 1.

    Term order (the canonical union order) decides the numbering.
    Returns the renamed expression and the parallel moves (dst, src)
    needed to relocate the store contents.
    """
    old = banks_in_order(r)
    mapping = {b: i + 1 for i, b in enumerate(old)}
    moves = [(dst, src) for src, dst in mapping.items() if dst != src]
    if not moves:
        return r, []

    def rename(x: Regex) -> Regex:
        if isinstance(x, Bank):
            return Bank(mapping[x.bank], x.writes, rename(x.body), x.src)
        if isinstance(x, Star):
            return Star(rename(x.body))
        if isinstance(x, Not):
            return Not(rename(x.body))
        if isinstance(x, Cat):
            return Cat(rename(x.head), rename(x.tail))
        if isinstance(x, Alt):
            return Alt(tuple(rename(t) for t in x.terms))
        if isinstance(x, Inter):
            return Inter(tuple(rename(t) for t in x.terms))
        return x

    return rename(r), moves


def sequence_moves(moves: list[tuple[int, int]], scratch: int) -> list[MemoryOp]:
    """Serialize parallel bank moves, breaking cycles with one scratch bank."""
    pending = dict(moves)  # dst -> src
    ops: list[MemoryOp] = []
    while pending:
        emitted = False
        for dst in list(pending):
            if dst not in pending.values():
                ops.append(CopyBank(dst, pending.pop(dst)))
                emitted = True
        if pending and not emitted:
            # Pure cycles remain: park one destination in the scratch bank
            # and redirect its readers there.
            dst = next(iter(pending))
            ops.append(CopyBank(scratch, dst))
            for d, s in list(pending.items()):
                if s == dst:
                    pending[d] = scratch
    return ops


def _scratch_above(*groups) -> int:
    top = 0
    for g in groups:
        for b in g:
            top = max(top, b)
    return top + 1


def normalize_step(
    r: Regex,
    tags: TagTable,
    store: Store,
    pos: int,
    alloc: Optional[BankAlloc] = None,
) -> tuple[Regex, list[MemoryOp]]:
    """One engine step after a derivative: teval, disambiguate, compact.

    Returns the normalized expression (dense banks, no pendings) and the
    full memory-op program, which has already been applied to ``store``.
    """
    n_slots = tags.num_tags
    r = teval(r, pos, alloc if alloc is not None else BankAlloc.after(r))
    r, ops = disambiguate(r, tags, store, pos)
    apply_ops(store, ops, pos, n_slots)
    r, moves = compact_banks(r)
    if moves:
        referenced = [b for mv in moves for b in mv]
        referenced.extend(banks_in_order(r))
        referenced.extend(b for op in ops for b in op_banks(op))
        mops = sequence_moves(moves, _scratch_above(referenced, store.keys()))
        apply_ops(store, mops, pos, n_slots)
        ops = ops + mops
    return r, ops


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
