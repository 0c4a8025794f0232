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
import math
from dataclasses import dataclass
from typing import Optional

from .anchors import inject_anchors
from .charset import Alphabet, CharSet
from .engine import MatchResult, Span, start, step
from .semantics import derivative_classes, nu_ways
from .semantics import derive  # kept: perfbench/tracing.py wraps this name
from .submatch import (
    HIGHER,
    POLICY_POSIX,
    Cells,
    CopyBank,
    InitBank,
    SetSlot,
    Store,
    apply_writes,
    bank_compare,
    extract_submatches,
    op_banks,
)
from .submatch import apply_ops as _apply_rel_ops  # kept: perfbench/tracing.py wraps this name
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import (
    EMPTY,
    EPSILON,
    Regex,
    TagTable,
    alt,
    banks_in_order,
    cat,
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
class Dfa:
    alphabet: Alphabet
    states: list[Regex]
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
    """The result of one accepting state.

    A run that stops here reports bank ``bank`` after ``ops``, its slot
    writes at the acceptance position.
    """

    bank: Optional[int]
    ops: tuple = ()


# ---------------------------------------------------------------------------
# The tagged machine: built as runs reach it, or all at once
# ---------------------------------------------------------------------------


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


def _accept_info(e: Regex, depth: int, store: Store, tags: TagTable) -> Optional[AcceptInfo]:
    """The nullable way whose bank ranks highest once its writes stamp ``depth``.

    The store signature is part of the state's identity, so every run
    that reaches the state ranks the ways alike: the choice is compiled
    here, once.  Ways without an owning bank carry no memory and are
    skipped; without tracked tags the first way wins.  None when no way
    qualifies.
    """
    ways = nu_ways(e, depth)
    if any(v != depth for owner, writes in ways if owner is not None for _, v in writes):
        raise AssertionError("acceptance writes must be at the current position")
    if tags.num_tags:
        best = None  # (cells, way)
        for way in ways:
            if way[0] is not None:
                cells = apply_writes(store[way[0]], way[1])
                if best is None or bank_compare(cells, best[0], tags) == HIGHER:
                    best = (cells, way)
        ways = [best[1]] if best else []
    if not ways:
        return None
    owner, writes = ways[0]
    ops = () if owner is None else tuple(SetSlot(owner, slot, 0) for slot, _ in writes)
    return AcceptInfo(owner, ops)


class TaggedDfa:
    """A DFA whose transitions carry memory-op programs; state 0 is ``engine.start``.

    A state is keyed by its expression, plus the signature of its live
    banks when tags are tracked.  Its ``AcceptInfo`` and derivative-class
    blocks are computed when it is created, and an edge (``engine.step``
    at one symbol of the block, from the state's first depth and store)
    when a run first takes it; ``build`` takes every edge.  Programs are
    position-relative, so the machine is depth-independent at run time.
    The alphabet decides anchoring: with anchors, the machine pads the
    pattern with the trailing anchor run and runs on the anchor-injected
    stream.
    """

    def __init__(self, r: Regex, tags: TagTable, policy: str = POLICY_POSIX,
                 alphabet: Alphabet = Alphabet(), state_limit: float = math.inf):
        self.anchored = alphabet.with_anchors
        expr, store, init_ops = start(r, tags, self.anchored)
        self.tags = tags
        self.policy = policy
        self.alphabet = alphabet
        self.state_limit = state_limit
        self.initial_ops = tuple(init_ops)
        self.index: Optional[dict] = {}
        self.states: list[Regex] = []
        self.depths: Optional[list[int]] = []
        self.stores: Optional[list[Store]] = []
        # Per state, [block, target, program] edges; target None until taken.
        self.transitions: list[list[list]] = []
        self.accepting: dict[int, AcceptInfo] = {}
        self.dead: Optional[int] = None  # the ∅ state, once created
        self._state_id(expr, store, 0)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def bank_count(self) -> int:
        banks = banks_in_order(self.states[0])
        banks += [b for row in self.transitions for _, _, ops in row
                  for op in ops for b in op_banks(op)]
        return max(banks, default=0) + 1

    def _state_id(self, e: Regex, st: Store, depth: int) -> int:
        n_slots = self.tags.num_tags
        key = e
        if n_slots:
            live = banks_in_order(e)
            st = {b: st[b] for b in live}
            key = (e, _store_signature(st, live, n_slots, depth))
        j = self.index.get(key)
        if j is None:
            j = len(self.states)
            if j and j >= self.state_limit:
                raise StateLimitError(self.state_limit)
            self.index[key] = j
            self.states.append(e)
            self.depths.append(depth)
            self.stores.append(st)
            blocks = derivative_classes(e, self.alphabet).blocks
            self.transitions.append([[b, None, ()] for b in sorted(blocks, key=lambda b: b.bounds)])
            info = _accept_info(e, depth, st, self.tags)
            if info is not None:
                self.accepting[j] = info
            if e == EMPTY:
                self.dead = j
        return j

    def _take(self, i: int, edge: list) -> None:
        d, st = self.depths[i], dict(self.stores[i])
        de, ops = step(self.states[i], edge[0].pick(), d, self.tags, st)
        edge[1:] = self._state_id(de, st, d + 1), tuple(ops)

    def step(self, i: int, cp: int) -> tuple[int, tuple]:
        for edge in self.transitions[i]:
            if cp in edge[0]:
                if edge[1] is None:
                    self._take(i, edge)
                return edge[1], edge[2]
        raise ValueError(f"symbol {cp:#x} outside the working alphabet")

    def build(self) -> "TaggedDfa":
        """Take every edge, state by state in creation (worklist) order."""
        i = 0
        while i < len(self.states):
            for edge in self.transitions[i]:
                if edge[1] is None:
                    self._take(i, edge)
            i += 1
        # A complete machine takes no more edges: release the construction tables.
        self.index = self.depths = self.stores = None
        return self


def make_dfa(
    r: Regex,
    alphabet: Alphabet = Alphabet(with_anchors=False),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Dfa:
    """Worklist construction over derivative-class blocks (tag-free).

    A plain DFA reads the text as it is, so its alphabet has no anchors.
    """
    if alphabet.with_anchors:
        raise ValueError("a plain DFA is unanchored: use make_tagged_dfa for anchors")
    m = TaggedDfa(r, TagTable(), POLICY_POSIX, alphabet, state_limit).build()
    transitions = tuple(tuple((block, j) for block, j, _ in row) for row in m.transitions)
    return Dfa(alphabet, m.states, transitions, frozenset(m.accepting))


def dfa_match(m: Dfa, s) -> bool:
    """Whole-sequence recognition (no anchor preprocessing)."""
    state = 0
    for c in s:
        cp = ord(c) if isinstance(c, str) else c
        state = m.step(state, cp)
    return state in m.accepting


def make_tagged_dfa(
    r: Regex,
    tags: TagTable,
    policy: str = POLICY_POSIX,
    alphabet: Alphabet = Alphabet(),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> TaggedDfa:
    """Construct a DFA whose transitions carry memory-op programs."""
    return TaggedDfa(r, tags, policy, alphabet, state_limit).build()


def tagged_dfa_match(m, text: str, stream_offsets: bool = False) -> MatchResult:
    """The one matching loop: run a ``TaggedDfa``, built or not, over text.

    Each accepting position offers its state's compiled result, the
    state's bank after its acceptance ops: under posix the later end
    wins, otherwise the earlier one unless the new bank ranks higher.
    The run stops in the ∅ state.
    """
    if m.anchored:
        stream = inject_anchors(text)
        symbols, origin = stream.symbols, stream.boundary_origin
    else:
        symbols = tuple(ord(c) for c in text)
        origin = tuple(range(len(text) + 1))
    tags = m.tags
    n_slots = tags.num_tags
    posix = m.policy == POLICY_POSIX
    accepting, dead, step_ = m.accepting, m.dead, m.step
    store: Store = {}
    _apply_rel_ops(store, m.initial_ops, 0, n_slots)
    best: Optional[tuple[int, Optional[Cells]]] = None  # match end, cells
    state = p = 0
    while True:
        info = accepting.get(state)
        if info is not None:
            cells = (apply_writes(store[info.bank], [(op.slot, p + op.offset) for op in info.ops])
                     if n_slots else None)
            if (best is None or posix
                    or (cells is not None and bank_compare(cells, best[1], tags) == HIGHER)):
                best = (p, cells)
        if p == len(symbols) or state == dead:
            break
        state, ops = step_(state, symbols[p])
        if dead is None:  # an on-demand machine creates ∅ when a run first reaches it
            dead = m.dead
        p += 1
        _apply_rel_ops(store, ops, p, n_slots)
    if best is None:
        return MatchResult(False)
    end, cells = best
    groups: list[Optional[Span]] = [(0, end if stream_offsets else origin[end])]
    if n_slots:
        groups.extend(extract_submatches(cells, tags, None if stream_offsets else origin))
    return MatchResult(True, cells, tuple(groups), end)


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
    if isinstance(op, SetSlot):
        when = "p-1" if op.offset == -1 else "p"
        return f"b{op.bank}[{op.slot}] <- {when}"
    raise TypeError(f"not a machine op: {op!r}")


def _op_json(op) -> dict:
    if isinstance(op, InitBank):
        return {"op": "init", "bank": op.bank}
    if isinstance(op, CopyBank):
        return {"op": "copy", "dst": op.dst, "src": op.src}
    if isinstance(op, SetSlot):
        return {"op": "set", "bank": op.bank, "slot": op.slot, "offset": op.offset}
    raise TypeError(f"not a machine op: {op!r}")


def export_dot(m) -> str:
    """Graphviz rendering; accepting states are double circles."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=point, label=""];']
    for i in range(m.n_states):
        shape = "doublecircle" if i in m.accepting else "circle"
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
        "kinds": list(m.tags.kinds),
        "groups": [list(p) for p in m.tags.group_pairs],
    }
    return json.dumps(doc, indent=2)
