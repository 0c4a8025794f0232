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


Plan = tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]


def plan_ops(ops: Iterable[MemoryOp]) -> Plan:
    """A transition's program as bank rebuilds: ``(dst, src, writes)`` steps.

    A step makes ``store[dst]`` the cells of ``store[src]`` with each
    ``(slot, offset)`` of ``writes`` set to ``pos + offset``, in order;
    ``()`` is a plain copy.  A slot write joins the step that last wrote
    its bank unless a later step read that bank in between, so a bank
    that is copied and then written is rebuilt once.  Transitions carry
    copies and slot writes only (``disambiguate``), so an ``InitBank``
    raises ``TypeError``; ``apply_ops`` stays the reference.
    """
    steps: list[tuple[int, int, list[tuple[int, int]]]] = []
    growing: dict[int, list[tuple[int, int]]] = {}  # bank -> writes of its step, while it may grow
    for op in ops:
        if isinstance(op, SetSlot):
            writes = growing.get(op.bank)
            if writes is None:
                writes = growing[op.bank] = []
                steps.append((op.bank, op.bank, writes))
            writes.append((op.slot, op.offset))
        elif isinstance(op, CopyBank):
            growing.pop(op.src, None)
            growing[op.dst] = []
            steps.append((op.dst, op.src, growing[op.dst]))
        else:
            raise TypeError(f"not a transition op: {op!r}")
    return tuple((dst, src, tuple(writes)) for dst, src, writes in steps)


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
    """Keep the highest-priority bank of each group of equal alternatives.

    Top-level alternatives structurally equal up to banks form a group
    (adjacent, as union terms are sorted); each group's bank that ranks
    highest after its pending writes survives.  The survivors are
    renumbered 1..k in term order.  Returns the pruned expression
    (pendings cleared) and its program against ``store``: the moves of
    the survivors' source banks into their new ids, then their writes as
    slot offsets from ``pos``, the position of this step's tag
    evaluation.  The writes come last because a new id may be another
    survivor's source.
    """
    best: dict[tuple, tuple[Bank, Cells]] = {}
    pruned: list[Regex] = []
    for t in alt_terms(r):
        if not isinstance(t, Bank):
            pruned.append(t)
            continue
        key = order_key(t)
        cells = apply_writes(store[t.src or t.bank], t.writes)
        if key not in best or bank_compare(cells, best[key][1], tags) == HIGHER:
            best[key] = (t, cells)
    if not best:
        return r, []
    moves: list[tuple[int, int]] = []
    sets: list[MemoryOp] = []
    for new, (t, _) in enumerate(best.values(), 1):
        moves.append((new, t.src or t.bank))
        pruned.append(Bank(new, (), t.body))
        for slot, value in t.writes:
            offset = value - pos
            if offset not in (-1, 0):
                raise AssertionError(f"write offset {offset} out of range")
            sets.append(SetSlot(new, slot, offset))
    # Scratch banks lie above every id the moves touch, kept ones
    # included, so parking a cycle overwrites no survivor.
    scratch = 1 + max(max(mv) for mv in moves)
    copies = sequence_moves([mv for mv in moves if mv[0] != mv[1]], scratch)
    return alt(pruned), copies + sets


def sequence_moves(moves: list[tuple[int, int]], scratch: int) -> list[MemoryOp]:
    """Serialize parallel bank moves (dst, src), each dst once.

    Cycles are broken through scratch banks numbered upward from
    ``scratch``, one per cycle, so no bank receives two copies.
    """
    pending = dict(moves)  # dst -> src
    ops: list[MemoryOp] = []
    while pending:
        emitted = False
        for dst in list(pending):
            if dst not in pending.values():
                ops.append(CopyBank(dst, pending.pop(dst)))
                emitted = True
        if pending and not emitted:
            # Pure cycles remain: park one destination in a scratch bank
            # and redirect its readers there.
            dst = next(iter(pending))
            ops.append(CopyBank(scratch, dst))
            for d, s in list(pending.items()):
                if s == dst:
                    pending[d] = scratch
            scratch += 1
    return ops


def normalize_step(
    r: Regex,
    tags: TagTable,
    store: Store,
    pos: int,
    alloc: Optional[BankAlloc] = None,
) -> tuple[Regex, list[MemoryOp]]:
    """One engine step after a derivative: teval, then disambiguate.

    Returns the normalized expression (banks 1..k, no pendings) and its
    memory-op program, which has already been applied to ``store``.
    """
    r = teval(r, pos, alloc if alloc is not None else BankAlloc.after(r))
    r, ops = disambiguate(r, tags, store, pos)
    apply_ops(store, ops, pos, tags.num_tags)
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
