"""Memory machinery: banks, slot writes, tag evaluation, disambiguation.

A match run owns a bank store (bank id -> slot cells); a bank's pending
writes are the ``Write`` run that starts its body, each a step offset
from derivation on (-1 the symbol just read, 0 the position after it).
Tag evaluation converts tags that head nullable paths into writes;
disambiguation lays the pending runs over the cells at the step's
position, keeps the highest-priority bank of every group of
structurally equal alternatives, and emits the memory program realizing
the survivors: an ordered tuple of bank rebuilds ``(dst, src, writes)``,
``apply_program`` runs one.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

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
        if tags.kind(k) == EARLY:
            a2 = a if a is not None else float("inf")
            b2 = b if b is not None else float("inf")
            return HIGHER if a2 < b2 else LOWER
        a2 = a if a is not None else float("-inf")
        b2 = b if b is not None else float("-inf")
        return HIGHER if a2 > b2 else LOWER
    return EQUAL


# --- tag evaluation ---------------------------------------------------------


def _eps_plus(ways) -> Regex:
    # (eps + nullify-writes ...): the plain epsilon is absorbed whenever
    # a way carries writes, preferring recorded positions.
    return alt([EPSILON] + [writes_chain(w) for w in ways if w])


def teval(r: Regex, pos: int) -> Regex:
    """Convert every tag heading a nullable path into a slot write at ``pos``.

    Language-preserving and idempotent.  The new writes join a bank's
    pending run at the start of its body; a bank copied when a
    write-headed union distributes keeps the id of the bank it reads.
    """
    if isinstance(r, (Empty, Eps, Sym, Write)):
        return r
    if isinstance(r, Tag):
        return Write(r.index, pos)
    if isinstance(r, Bank):
        return bank(r.bank, teval(r.body, pos))
    if isinstance(r, Star):
        prefix = _eps_plus(nu_ways(teval(r.body, pos), pos))
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
                # A write stamped with this evaluation's position marks
                # a subterm it already produced: fixpoint.  (The engine
                # derives at offset -1 and evaluates at offset 0, so
                # fresh input never carries an offset-0 write.)
                return r
            return cat(writes_chain(run), teval(rest, pos))
        if isinstance(head, Tag):
            return cat(teval(head, pos), teval(tail, pos))
        if not is_nullable(head):
            return cat(teval(head, pos), tail)
        prefix = _eps_plus(nu_ways(teval(tail, pos), pos))
        return cat(prefix, cat(teval(head, pos), tail))
    raise TypeError(f"not a Regex: {r!r}")


# --- disambiguation ---------------------------------------------------------


def disambiguate(
    r: Regex, tags: TagTable, store: Store, pos: int
) -> tuple[Regex, Program]:
    """Keep the highest-priority bank of each group of equal alternatives.

    Each top-level bank names the bank of ``store`` it reads; several
    alternatives may read one bank.  Alternatives structurally equal up
    to banks and pending writes form a group (adjacent, as union terms
    are sorted); each group's bank that ranks highest after its pending
    writes, the ``Write`` run that starts its body, survives.  The
    survivors are numbered 1..k in term order.  Pending writes are step
    offsets, laid over the cells at ``pos``, the position of this step's
    tag evaluation, to rank a bank.  Returns the pruned expression (write
    runs dropped) and its program against ``store``: one rebuild for
    each survivor that moves or is written, the cells of the bank it
    reads with its run as it is, in the order ``order_rebuilds`` gives.
    """
    best: dict[tuple, tuple[int, tuple, Regex, Cells]] = {}
    pruned: list[Regex] = []
    for t in alt_terms(r):
        if not isinstance(t, Bank):
            pruned.append(t)
            continue
        run, body = _split_write_run(t.body)
        key = order_key(body)
        cells = apply_writes(store[t.bank], run, pos)
        if key not in best or bank_compare(cells, best[key][3], tags) == HIGHER:
            best[key] = (t.bank, tuple(run), body, cells)
    if not best:
        return r, ()
    rebuilds: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for new, (src, writes, body, _) in enumerate(best.values(), 1):
        pruned.append(Bank(new, body))
        if src != new or writes:
            rebuilds[new] = (src, writes)
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

    Every bank of ``r`` names a bank of ``store``; its pending writes
    are step offsets (the engine derives at -1, tag evaluation stamps 0),
    laid over the store at ``pos``.  Returns the normalized expression
    (banks 1..k, no pendings) and its memory program, which has already
    been applied to ``store``.
    """
    r = teval(r, 0)
    r, program = disambiguate(r, tags, store, pos)
    apply_program(store, program, pos, tags.num_tags)
    return r, program


# --- submatch extraction ----------------------------------------------------


def extract_submatches(
    cells: Cells, tags: TagTable, origin: Optional[Mapping[int, int]] = None
) -> list[Optional[tuple[int, int]]]:
    """Group spans from a final bank, in user group order.

    ``origin`` maps each stream position the bank holds to its text
    offset (``tagged_dfa_match`` passes a dict over just those
    positions); when omitted, positions are reported as they are.  A
    group with an unset boundary is reported as unmatched.
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
