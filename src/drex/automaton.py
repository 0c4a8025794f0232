"""DFA construction, execution, export, and the automaton-to-regex path.

States are canonical expression trees; expanded similarity (structural
equality of canonical trees, banks blinded) decides state identity, so
construction terminates with finitely many states.  Transitions are
keyed by derivative-class blocks, never by single symbols.  Tagged
machines additionally carry memory-operation programs on transitions,
an initial program, and a result bank per accepting state.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .anchors import inject_anchors
from .charset import Alphabet, CharSet
from .engine import Candidate, MatchResult, best_way, match_result, offer, start, step
from .semantics import derivative_classes, nu_ways
from .semantics import derive  # kept: perfbench/tracing.py wraps this name
from .submatch import (
    POLICY_POSIX,
    CopyBank,
    InitBank,
    SetSlot,
    Store,
    apply_ops,
    op_banks,
)
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import (
    EMPTY,
    EPSILON,
    Regex,
    TagTable,
    alt,
    banks_in_order,
    cat,
    is_nullable,
    show,
    show_class,
    star,
    sym,
)

DEFAULT_STATE_LIMIT = 100_000


class StateLimitError(RuntimeError):
    """Raised when construction would exceed the configured state bound."""

    def __init__(self, bound: int):
        super().__init__(f"state count exceeds the configured bound of {bound}")
        self.bound = bound


@dataclass(frozen=True)
class SetSlotRel:
    """Machine op: write the runtime position (plus offset) into a slot.

    Offset -1 names the position of the symbol that triggered the
    transition; offset 0 names the position after it (used by writes
    emitted during tag evaluation and acceptance).
    """

    bank: int
    slot: int
    offset: int


@dataclass(frozen=True)
class Dfa:
    alphabet: Alphabet
    states: tuple[Regex, ...]
    transitions: tuple[tuple[tuple[CharSet, int], ...], ...]
    accepting: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, state: int, cp: int) -> int:
        for block, target in self.transitions[state]:
            if cp in block:
                return target
        raise ValueError(f"symbol {cp:#x} outside the working alphabet")


@dataclass(frozen=True)
class AcceptInfo:
    """Result-bank information of one accepting state.

    ``bank``/``ops`` name the construction-preferred result; ``ways``
    lists every nullable alternative, its writes relative to the
    acceptance position, so the run-time comparison sees the same
    candidates as the lazy engine.
    """

    bank: Optional[int]
    ops: tuple = ()
    ways: tuple = ()


@dataclass(frozen=True)
class TaggedDfa:
    alphabet: Alphabet
    states: tuple[Regex, ...]
    transitions: tuple[tuple[tuple[CharSet, int, tuple], ...], ...]
    accepting: dict[int, AcceptInfo]
    initial_ops: tuple
    tags: TagTable
    bank_count: int
    policy: str = POLICY_POSIX
    anchored: bool = True

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, state: int, cp: int) -> tuple[int, tuple]:
        for block, target, ops in self.transitions[state]:
            if cp in block:
                return target, ops
        raise ValueError(f"symbol {cp:#x} outside the working alphabet")


def _sorted_blocks(blocks) -> list[CharSet]:
    return sorted(blocks, key=lambda b: b.bounds)


def _build(expr: Regex, store: Store, tags: TagTable, alphabet: Alphabet,
           state_limit: int):
    """Worklist construction: ``engine.step`` over derivative-class blocks.

    State identity is the expression alone when no tags are tracked, and
    the expression plus the signature of its live banks otherwise.
    Disambiguation compares banks at concrete positions counted from the
    start expression; the emitted programs are position-relative, so the
    machine is depth-independent at run time.  Returns the states, their
    depths and stores, and the rows of (block, target, program).
    """
    n_slots = tags.num_tags
    states: list[Regex] = []
    depths: list[int] = []
    stores: list[Store] = []
    index: dict = {}
    work: deque[int] = deque()

    def state_id(e: Regex, st: Store, depth: int) -> int:
        key = e
        if n_slots:
            live = banks_in_order(e)
            st = {b: st[b] for b in live}
            key = (e, _store_signature(st, live, n_slots, depth))
        j = index.get(key)
        if j is None:
            j = len(states)
            if j and j >= state_limit:
                raise StateLimitError(state_limit)
            index[key] = j
            states.append(e)
            depths.append(depth)
            stores.append(st)
            work.append(j)
        return j

    state_id(expr, store, 0)
    rows: list[tuple] = []
    while work:
        i = work.popleft()  # ids are handed out in worklist order
        e, d = states[i], depths[i]
        row = []
        for block in _sorted_blocks(derivative_classes(e, alphabet).blocks):
            st = dict(stores[i])
            de, ops = step(e, block.pick(), d, tags, st)
            row.append((block, state_id(de, st, d + 1), _encode_ops(ops, d + 1)))
        rows.append(tuple(row))
    return states, depths, stores, rows


def make_dfa(
    r: Regex,
    alphabet: Alphabet = Alphabet(with_anchors=False),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Dfa:
    """Worklist construction over derivative-class blocks (tag-free)."""
    states, _, _, rows = _build(r, {}, TagTable(), alphabet, state_limit)
    accepting = frozenset(i for i, e in enumerate(states) if is_nullable(e))
    transitions = tuple(tuple((block, j) for block, j, _ in row) for row in rows)
    return Dfa(alphabet, tuple(states), transitions, accepting)


def dfa_match(m: Dfa, s) -> bool:
    """Whole-sequence recognition (no anchor preprocessing)."""
    state = 0
    for c in s:
        cp = ord(c) if isinstance(c, str) else c
        state = m.step(state, cp)
    return state in m.accepting


# ---------------------------------------------------------------------------
# Tagged construction
# ---------------------------------------------------------------------------


def _encode_ops(ops, base: int) -> tuple:
    out = []
    for op in ops:
        if isinstance(op, SetSlot):
            offset = op.value - base
            if offset not in (-1, 0):
                raise AssertionError(f"write offset {offset} out of range")
            out.append(SetSlotRel(op.bank, op.slot, offset))
        else:
            out.append(op)
    return tuple(out)


def _apply_rel_ops(store: Store, ops, p: int, n_slots: int) -> None:
    for op in ops:
        if isinstance(op, SetSlotRel):
            cells = list(store[op.bank])
            cells[op.slot] = p + op.offset
            store[op.bank] = tuple(cells)
        else:
            apply_ops(store, [op], n_slots)


def _store_signature(store: Store, banks: list[int], n_slots: int, p: int) -> tuple:
    """Bounded abstraction of a bank store: per-slot value order.

    Records, slot by slot, the relative order of the live banks' cells,
    which cells are unset, and which hold the current position.  Bank
    comparisons read only this information, so two stores with the same
    signature disambiguate identically; making it part of tagged state
    identity keeps compiled decisions valid on every path that reaches
    the state.
    """
    sig = []
    for s in range(n_slots):
        vals = [store[b][s] for b in banks]
        present = sorted({v for v in vals if v is not None})
        rank = {v: i for i, v in enumerate(present)}
        sig.append(
            tuple(
                (-1, False) if v is None else (rank[v], v == p) for v in vals
            )
        )
    return tuple(sig)


def _accept_info(e: Regex, depth: int, store: Store, tags: TagTable):
    ways = nu_ways(e, depth)
    found = best_way(ways, 0, store, tags)
    if found is None:
        return None
    rel = tuple((owner, tuple((slot, v - depth) for slot, v in writes))
                for owner, writes in ways)
    if any(v for owner, writes in rel if owner is not None for _, v in writes):
        raise AssertionError("acceptance writes must be at the current position")
    (owner, writes), _ = found
    ops = () if owner is None else tuple(SetSlotRel(owner, slot, 0) for slot, _ in writes)
    return AcceptInfo(owner, ops, rel)


def make_tagged_dfa(
    r: Regex,
    tags: TagTable,
    policy: str = POLICY_POSIX,
    alphabet: Alphabet = Alphabet(with_anchors=True),
    anchored: bool = True,
    pad: Optional[bool] = None,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> TaggedDfa:
    """Construct a DFA whose transitions carry memory-op programs."""
    if pad is None:
        pad = anchored
    expr, store, init_ops = start(r, tags, pad)
    states, depths, stores, rows = _build(expr, store, tags, alphabet, state_limit)
    accepting: dict[int, AcceptInfo] = {}
    for i, e in enumerate(states):
        info = _accept_info(e, depths[i], stores[i], tags)
        if info is not None:
            accepting[i] = info
    banks = banks_in_order(expr)
    banks += [b for row in rows for _, _, ops in row for op in ops for b in op_banks(op)]
    return TaggedDfa(
        alphabet=alphabet,
        states=tuple(states),
        transitions=tuple(rows),
        accepting=accepting,
        initial_ops=_encode_ops(init_ops, 0),
        tags=tags,
        bank_count=max(banks, default=0) + 1,
        policy=policy,
        anchored=anchored,
    )


def tagged_dfa_match(m: TaggedDfa, text: str, stream_offsets: bool = False) -> MatchResult:
    """Run a tagged machine over text, reporting spans like ``match_full``."""
    if m.anchored:
        stream = inject_anchors(text)
        symbols = stream.symbols
        boundary_origin = stream.boundary_origin
    else:
        symbols = tuple(ord(c) for c in text)
        boundary_origin = tuple(range(len(text) + 1))
    n_slots = m.tags.num_tags
    store: Store = {}
    _apply_rel_ops(store, m.initial_ops, 0, n_slots)
    best: Optional[Candidate] = None
    state = 0
    for p in range(len(symbols) + 1):
        if p:
            state, ops = m.step(state, symbols[p - 1])
            _apply_rel_ops(store, ops, p, n_slots)
        info = m.accepting.get(state)
        if info is not None:
            best = offer(best, p, best_way(info.ways, p, store, m.tags)[1], m.policy, m.tags)
    return match_result(best, m.tags, boundary_origin, stream_offsets)


# ---------------------------------------------------------------------------
# Automaton -> expression (state elimination via the closure rule)
# ---------------------------------------------------------------------------


def dfa_to_regex(m: Dfa) -> Regex:
    """Solve the automaton's characteristic equations for the start state.

    Each state contributes one linear equation over its outgoing blocks;
    states are eliminated highest id first, replacing every self-loop
    ``X = L X + R`` by ``X = L* R`` (sound because every loop
    coefficient consumes at least one symbol).
    """
    n = m.n_states
    coeff: list[dict[int, Regex]] = [dict() for _ in range(n)]
    const: list[Regex] = [EPSILON if i in m.accepting else EMPTY for i in range(n)]
    for i in range(n):
        for block, j in m.transitions[i]:
            atom = sym(block, transparent=True)
            coeff[i][j] = alt([coeff[i].get(j, EMPTY), atom])
    for i in range(n - 1, 0, -1):
        loop = coeff[i].pop(i, EMPTY)
        if loop != EMPTY:
            pre = star(loop)
            coeff[i] = {j: cat(pre, L) for j, L in coeff[i].items()}
            const[i] = cat(pre, const[i])
        for k in range(i):
            w = coeff[k].pop(i, None)
            if w is None:
                continue
            for j, L in coeff[i].items():
                coeff[k][j] = alt([coeff[k].get(j, EMPTY), cat(w, L)])
            const[k] = alt([const[k], cat(w, const[i])])
    loop0 = coeff[0].pop(0, EMPTY)
    if loop0 != EMPTY:
        return cat(star(loop0), const[0])
    return const[0]


# ---------------------------------------------------------------------------
# Minimality oracle
# ---------------------------------------------------------------------------


def check_minimal(m: Dfa) -> list[tuple[int, int]]:
    """Pairs of states recognizing the same language; empty iff minimal.

    Classic partition refinement over the joint refinement of all
    per-state symbol blocks.
    """
    blocks: list[CharSet] = [m.alphabet.working]
    for row in m.transitions:
        refined = []
        for g in blocks:
            for b, _ in row:
                cut = g.intersect(b)
                if not cut.is_empty():
                    refined.append(cut)
        blocks = refined
    reps = [b.pick() for b in blocks]
    cls = [1 if i in m.accepting else 0 for i in range(m.n_states)]
    while True:
        sig = {}
        nxt = []
        for i in range(m.n_states):
            key = (cls[i], tuple(cls[m.step(i, a)] for a in reps))
            nxt.append(sig.setdefault(key, len(sig)))
        if nxt == cls:
            break
        cls = nxt
    pairs = []
    for i in range(m.n_states):
        for j in range(i + 1, m.n_states):
            if cls[i] == cls[j]:
                pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _op_str(op) -> str:
    if isinstance(op, InitBank):
        return f"init b{op.bank}"
    if isinstance(op, CopyBank):
        return f"b{op.dst} <- b{op.src}"
    if isinstance(op, SetSlotRel):
        when = "p-1" if op.offset == -1 else "p"
        return f"b{op.bank}[{op.slot}] <- {when}"
    if isinstance(op, SetSlot):
        return f"b{op.bank}[{op.slot}] <- {op.value}"
    raise TypeError(f"not a memory op: {op!r}")


def _op_json(op) -> dict:
    if isinstance(op, InitBank):
        return {"op": "init", "bank": op.bank}
    if isinstance(op, CopyBank):
        return {"op": "copy", "dst": op.dst, "src": op.src}
    if isinstance(op, SetSlotRel):
        return {"op": "set", "bank": op.bank, "slot": op.slot, "offset": op.offset}
    raise TypeError(f"not a machine op: {op!r}")


def export_dot(m) -> str:
    """Graphviz rendering; accepting states are double circles."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=point, label=""];']
    accepting = m.accepting if isinstance(m, Dfa) else set(m.accepting)
    for i in range(m.n_states):
        shape = "doublecircle" if i in accepting else "circle"
        lines.append(f'  q{i} [shape={shape}, label="q{i}"];')
    lines.append("  start -> q0;")
    for i, row in enumerate(m.transitions):
        for entry in row:
            if isinstance(m, Dfa):
                block, j = entry
                label = show_class(block)
            else:
                block, j, ops = entry
                label = show_class(block)
                if ops:
                    label += "\\n" + "; ".join(_op_str(o) for o in ops)
            label = label.replace('"', '\\"')
            lines.append(f'  q{i} -> q{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def export_json(m) -> str:
    """Stable JSON rendering of a machine (see docs/tagged_dfa.schema.json)."""
    doc: dict = {
        "states": [show(e) for e in m.states],
        "initial": 0,
    }
    if isinstance(m, Dfa):
        doc["accepting"] = sorted(m.accepting)
        doc["transitions"] = [
            {"from": i, "symbols": show_class(block), "to": j}
            for i, row in enumerate(m.transitions)
            for block, j in row
        ]
        return json.dumps(doc, indent=2)
    doc["accepting"] = {
        str(i): {
            "bank": info.bank,
            "ops": [_op_json(o) for o in info.ops],
        }
        for i, info in sorted(m.accepting.items())
    }
    doc["transitions"] = [
        {
            "from": i,
            "symbols": show_class(block),
            "to": j,
            "ops": [_op_json(o) for o in ops],
        }
        for i, row in enumerate(m.transitions)
        for block, j, ops in row
    ]
    doc["initial_ops"] = [_op_json(o) for o in m.initial_ops]
    doc["bank_count"] = m.bank_count
    doc["policy"] = m.policy
    doc["anchored"] = m.anchored
    doc["tags"] = {
        "kinds": [e.kind for e in m.tags.entries],
        "groups": [list(p) for p in m.tags.group_pairs],
    }
    return json.dumps(doc, indent=2)
