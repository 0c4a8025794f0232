"""DFA construction, execution, export, and the automaton-to-regex path.

A state is a canonical expression tree, or for a tagged machine the
tuple of its bank bodies; expanded similarity (structural equality of
canonical trees) decides state identity, so construction terminates
with finitely many states.  Transitions are keyed by derivative-class
blocks, never by single symbols.  Tagged machines additionally carry
memory programs on transitions (the ordered bank rebuilds of
``submatch.disambiguate``), an initial program, and a result bank per
accepting state.

A machine sorts its cut points when it is created: they split the
symbols into intervals, each inside one block of every state, so a
state's derivative-class blocks are computed as bitmasks over the
intervals and meet by ``&``.  The run-time table is made with the cuts,
so a machine looks its edges up by index: each state starts on the
machine's one blank row, indexed by interval id, and an entry is filled
by the block scan when a run first needs it.  An entry is ``(target,
program, accept_info, fast)``; the loop applies the program inline, and
``step`` and the exports read the same program.  ``fast`` is the
target's set of intervals on which it loops with no markers: the loop
skips a run of them with one set test per character.  One loop walks the
text, ``tagged_dfa_match``: the anchor markers at a boundary come from
the ``anchors.BOUNDARY`` table, by the classes of the characters around
it, so no anchor stream is built, and it records only the markers'
stream positions, to map positions to text offsets.  A plain ``Dfa``
from ``make_dfa`` keeps the tag-free, unanchored machine it was read
from, and ``dfa_match`` is that loop's verdict; ``drex trace`` prints
from the loop's run itself.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

from .anchors import BOUNDARY, EDGE, NEWLINE_SET, OTHER, WORD_SET, char_class
from .anchors import inject_anchors  # kept: perfbench/tracing.py wraps this name
from .charset import (ANCHOR_MIN, ANCHORS, MAX_CODEPOINT, UNIVERSE_END, Alphabet, CharSet,
                      interval_mask, mask_charset, single)
from .engine import MatchResult, start, step
from .semantics import _minterms, class_masks, meet_masks
from .semantics import derivative_classes  # kept: perfbench/tracing.py wraps this name
from .semantics import derive, nu_ways  # kept: perfbench/tracing.py wraps these names
from .submatch import (
    HIGHER,
    Rebuild,
    Store,
    bank_compare,
    show_state,
)
from .submatch import apply_program as _apply_rel_ops  # the name perfbench/tracing.py wraps
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import (
    EMPTY,
    EPSILON,
    POLICY_POSIX,
    Alt,
    Cat,
    Inter,
    Not,
    Regex,
    Star,
    Sym,
    TagTable,
    alt,
    cat,
    is_nullable,
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


# ---------------------------------------------------------------------------
# Run-time dispatch: rows indexed by interval id
# ---------------------------------------------------------------------------


def _outside(cp: int) -> ValueError:
    return ValueError(f"symbol {cp:#x} outside the working alphabet")


def _atom_bounds(e) -> set[int]:
    """The bounds of every symbol-class atom of ``e``, a tree or a tuple of trees."""
    bounds: set[int] = set()
    seen = set()  # inner nodes walked: hash-consed, shared, hashed by identity
    stack = list(e) if isinstance(e, tuple) else [e]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is Sym:
            bounds.update(x.chars.bounds)
        elif x not in seen:
            seen.add(x)
            if kind is Cat:
                stack += (x.head, x.tail)
            elif kind is Alt or kind is Inter:
                stack.extend(x.terms)
            elif kind is Star or kind is Not:
                stack.append(x.body)
    return bounds


@dataclass(frozen=True)
class Dfa:
    """A plain DFA's table: per state, (block, target) edges; state 0 starts.

    One from ``make_dfa`` keeps, as ``machine``, the tag-free, unanchored
    ``TaggedDfa`` it was read from, and only such a ``Dfa`` can run
    (``step``, ``dfa_match``).  A ``Dfa`` built by hand is a table for
    ``dfa_to_regex``, ``check_minimal`` and the exports; running it
    raises ``ValueError``.
    """

    alphabet: Alphabet
    states: list[Regex]
    transitions: tuple[tuple[tuple[CharSet, int], ...], ...]
    accepting: frozenset[int]
    machine: Optional[TaggedDfa] = field(default=None, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def step(self, state: int, cp: int) -> int:
        return _runnable(self).step(state, cp)[0]


def _runnable(m: Dfa) -> TaggedDfa:
    """The machine ``m`` runs on; a ``Dfa`` built by hand has none."""
    if m.machine is None:
        raise ValueError("only a Dfa from make_dfa can run: this one is a table built by hand")
    return m.machine


def _edges(m):
    """Every edge of a complete machine, a ``Dfa`` or a ``TaggedDfa``, as
    ``(i, block, j, program)``, row by row; a ``Dfa``'s program is ``()``.

    An edge no run has taken yet raises ``ValueError``: its target is
    not known until ``build()`` takes it.
    """
    for i, row in enumerate(m.transitions):
        for edge in row:
            block, j, program = (*edge, ())[:3]  # a Dfa's edge carries no program
            if j is None:
                raise ValueError(f"state {i} has an edge on {show_class(block)} not taken yet:"
                                 " call build() to take every edge first")
            yield i, block, j, program


@dataclass(frozen=True)
class AcceptInfo:
    """The result of one accepting state: a run that stops here reports
    bank ``bank``'s cells as they stand (None without tracked tags)."""

    bank: Optional[int]
    ops = ()  # always empty: perfbench/worker.py machine_size reads it


# ---------------------------------------------------------------------------
# The tagged machine: built as runs reach it, or all at once
# ---------------------------------------------------------------------------


def _accept_info(e, store: Store, tags: TagTable) -> Optional[AcceptInfo]:
    """The highest-ranked nullable bank on the store as it stands.

    Tag evaluation has already written each alternative's slots into its
    bank, so the bank is the result.  The canonical store is part of the
    state's identity, so every run that reaches the state ranks the banks
    alike: the choice is compiled here, once; ties go to the earlier
    bank.  Without tracked tags only nullability counts.  None when no
    alternative is nullable.
    """
    if not tags.num_tags:
        return AcceptInfo(None) if is_nullable(e) else None
    best = None
    for b, body in enumerate(e, 1):
        if not is_nullable(body):
            continue
        if best is None or bank_compare(store[b], store[best], tags) == HIGHER:
            best = b
    return None if best is None else AcceptInfo(best)


class TaggedDfa:
    """A DFA whose transitions carry memory programs; state 0 is ``engine.start``.

    With tracked tags a state is the tuple of its bank bodies (bank
    ``i`` heads the ``i``-th, ``()`` is ∅), kept with the canonical
    store that ``engine.start`` or ``engine.step`` returned for it;
    without, it is a tree, and its store is empty.  A state is keyed by
    its expression and its store's cells.  Its ``AcceptInfo`` and
    derivative-class blocks (as masks over the intervals between the cut
    points) are computed when it is created, and an edge (``engine.step``
    at one symbol of the block, from the state's store) when a run first
    takes it; ``build`` takes every edge.  The machine interns what a
    step returns: it copies no store, runs no program and knows no
    position.  One memo serves the whole construction: the
    derivative (``semantics.derive``), the tag evaluation
    (``submatch.teval``) and the class masks (``semantics.class_masks``)
    of every inner node, and the class blocks of every state expression,
    which states that differ only in their store share.  It lives and
    dies with the construction tables (``index``, ``stores``), which
    ``build`` releases.
    Pending writes are step offsets from derivation on, so programs are
    position-relative and the machine is depth-independent at run time.
    The alphabet decides anchoring: with anchors, the machine pads the
    pattern with the trailing anchor run and runs on the anchor-injected
    stream.

    The run-time table is made with the machine.  The cuts are the
    bounds of the atoms of state 0 (every later state is built from
    them), of the alphabet, of each anchor and of the boundary classes,
    so each interval lies inside one block of every state: bit ``k`` of
    a class mask is interval ``k``.  A symbol's interval id is
    ``ascii_ids[cp]`` below 128, else ``bisect_right(cuts, cp)``;
    interval ``k > 0`` starts at ``cuts[k - 1]``, and interval 0 and the
    last one lie outside every block.  ``cuts[-1]`` is ``UNIVERSE_END``,
    so no text character falls in the last interval: the loop uses its
    id for the end of the text.  ``rows[i][k]`` is state ``i``'s entry
    for interval ``k``, ``(target, program, accept_info, fast)`` (see
    ``_fill``), None until a run first needs it; a state starts on the
    machine's one immutable blank row, which ``_fill`` copies into a
    list of its own when it first writes an entry, so a machine no run
    reaches holds no row storage.  ``char_classes[k]`` is the boundary
    class of interval ``k``, and ``runs[prev][k]`` lists the ids a
    character of interval ``k`` adds to the stream after one of class
    ``prev``: the boundary's markers, then its own.

    ``fast[j, c]`` is state ``j``'s fast set for boundary class ``c``:
    the character intervals of class ``c`` on which ``j`` steps to
    itself with no markers and one shared program that may be applied
    once for a whole run, so the loop skips a run of them with one set
    test per character.  ``_fill`` decides it once per entry: interval
    ``k`` of state ``i`` joins ``fast[i, char_classes[k]]`` when the
    entry's target is ``i``, ``i`` is not ∅, ``runs[char_classes[k]][k]
    == (k,)``, its program is the set's (its members share one), and the
    program is empty or rebuilds every bank in place with writes
    (``dst == src``) while the policy is posix or ``i`` is not
    accepting.  Any other interval stays on the step path.  An
    unanchored machine adds no markers, so its runs are not split by
    class: its one set per state is keyed by ``OTHER``.  An entry's
    ``fast`` is its target's set for the class of its interval, made
    when the entry is filled, so the loop sees the set grow; a machine
    no run reaches holds no set.
    """

    def __init__(self, r: Regex, tags: TagTable, policy: str = POLICY_POSIX,
                 alphabet: Alphabet = Alphabet(), state_limit: float = math.inf):
        self.anchored = alphabet.with_anchors
        # The construction memo, shared by every step: (node, symbol, -1)
        # -> derivative, (node, 0) -> tag evaluation, (node, None) -> the
        # node's class masks, and a state's expression -> its sorted class
        # blocks.  No two kinds of key meet: a tag-free state is a tree,
        # not a tuple, and a tagged state is a tuple of trees, while a
        # step key ends in an int and a mask key in None.
        self._memo: Optional[dict] = {}
        expr, store, self.initial_ops = start(r, tags, self.anchored, self._memo)
        # The cut points and, over their intervals, the masks of the
        # working alphabet and of its anchors: the space in which
        # ``semantics.class_masks`` computes a node's classes.
        cuts = _atom_bounds(expr)
        for extra in (alphabet.working.bounds, range(ANCHOR_MIN, UNIVERSE_END + 1),
                      WORD_SET.bounds, NEWLINE_SET.bounds):
            cuts.update(extra)
        self.cuts = cuts = sorted(cuts)
        working = interval_mask(alphabet.working, cuts)
        self._space = cuts, working, interval_mask(ANCHORS, cuts) & working
        # The run-time table over the same intervals (see the class docstring).
        top = len(cuts)
        self.ascii_ids = [bisect_right(cuts, cp) for cp in range(128)]
        self.char_classes = [OTHER] + [char_class(cp) for cp in cuts[:-1]] + [EDGE]
        marks = [[tuple(bisect_right(cuts, mk) for mk in between) if self.anchored else ()
                  for between in row] for row in BOUNDARY]
        self.runs = [[marks[prev][self.char_classes[k]] + (k,) for k in range(top)]
                     + [marks[prev][EDGE]] for prev in range(EDGE + 1)]
        self.rows: list = []
        # (state, class) -> its fast set, held as a dict's keys: most stay
        # empty, and an empty dict is 64 bytes where an empty set is 216.
        self.fast: dict[tuple[int, int], dict[int, None]] = {}
        self._blank = (None,) * (top + 1)
        self._charsets: Optional[dict[int, CharSet]] = {}  # mask -> its block, as states share them
        self.tags = tags
        self.policy = policy
        self.alphabet = alphabet
        self.state_limit = state_limit
        self.index: Optional[dict] = {}
        self.states: list = []  # trees, or tuples of bank bodies with tags
        self.stores: Optional[list[Store]] = []
        # Per state, [block, target, program] edges; target None until taken.
        self.transitions: list[list[list]] = []
        self.accepting: dict[int, AcceptInfo] = {}
        self.dead: Optional[int] = None  # the ∅ state, once created
        self._state_id(expr, store)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def bank_count(self) -> int:
        banks = [len(self.states[0]) if self.tags.num_tags else 0]
        banks += [b for *_, program in _edges(self) for dst, src, _ in program for b in (dst, src)]
        return max(banks) + 1

    def _state_id(self, e, st: Store) -> int:
        key = (e, tuple(st.values()))
        j = self.index.get(key)
        if j is None:
            j = len(self.states)
            if j >= self.state_limit:
                raise StateLimitError(self.state_limit)
            self.index[key] = j
            self.states.append(e)
            self.stores.append(st)
            blocks = self._memo.get(e)
            if blocks is None:
                blocks = self._memo[e] = self._classes(e)
            self.transitions.append([[b, None, ()] for b in blocks])
            self.rows.append(self._blank)
            info = _accept_info(e, st, self.tags)
            if info is not None:
                self.accepting[j] = info
            if e == EMPTY or e == ():
                self.dead = j
        return j

    def _classes(self, e) -> list[CharSet]:
        """The derivative-class blocks of state expression ``e`` (a tree or
        a tuple of bank bodies, whose partitions meet), sorted by bounds:
        ``derivative_classes(e, self.alphabet)``, computed as interval masks
        and sorted by lowest bit."""
        space, memo, charsets = self._space, self._memo, self._charsets
        if isinstance(e, tuple):
            masks = meet_masks([class_masks(body, space, memo) for body in e], space[1])
        else:
            masks = class_masks(e, space, memo)
        blocks = []
        # An empty alphabet's one block is the mask 0: it has no symbol.
        for m in sorted(filter(None, masks), key=lambda m: m & -m):
            b = charsets.get(m)
            if b is None:
                b = charsets[m] = mask_charset(m, space[0])
            blocks.append(b)
        return blocks

    def _take(self, i: int, edge: list) -> None:
        de, program, st = step(self.states[i], edge[0].pick(), self.tags, self.stores[i],
                               self._memo)
        edge[1:] = self._state_id(de, st), program

    def _fill(self, i: int, k: int, cp: int) -> tuple:
        """Row ``i``'s entry for interval ``k``, from the block scan:
        target ``j``, program, ``j``'s ``AcceptInfo`` and ``j``'s fast set
        after a symbol of ``k``.  It decides here, once, whether ``k``
        joins ``i``'s fast set (see the class docstring).  Outside the
        alphabet it raises ``ValueError`` naming ``cp``, the symbol read."""
        cuts = self.cuts
        for edge in self.transitions[i] if k else ():
            if cuts[k - 1] in edge[0]:
                if edge[1] is None:
                    self._take(i, edge)
                _, j, program = edge
                cls = self.char_classes[k] if self.anchored else OTHER
                fast = self.fast.setdefault((j, cls), {})
                if (j == i and i != self.dead and cuts[k - 1] <= MAX_CODEPOINT
                        and self.runs[cls][k] == (k,)
                        and (not program
                             or (all(dst == src and writes for dst, src, writes in program)
                                 and (self.policy == POLICY_POSIX or i not in self.accepting)))
                        and (not fast or self.rows[i][next(iter(fast))][1] == program)):
                    fast[k] = None
                row = self.rows[i]
                if row is self._blank:
                    row = self.rows[i] = list(row)
                entry = row[k] = (j, program, self.accepting.get(j), fast)
                return entry
        raise _outside(cp)

    def step(self, i: int, cp: int) -> tuple[int, tuple]:
        """State ``i``'s edge on ``cp``, as ``(target, program)``, taken if
        no run has taken it yet; ``ValueError`` outside the alphabet."""
        k = self.ascii_ids[cp] if 0 <= cp < 128 else bisect_right(self.cuts, cp)
        return (self.rows[i][k] or self._fill(i, k, cp))[:2]

    def build(self) -> "TaggedDfa":
        """Take every edge, state by state in creation (worklist) order."""
        i = 0
        while i < len(self.states):
            for edge in self.transitions[i]:
                if edge[1] is None:
                    self._take(i, edge)
            i += 1
        # A complete machine takes no more edges: release the construction tables.
        self.index = self.stores = self._memo = self._charsets = None
        return self


def make_dfa(
    r: Regex,
    alphabet: Alphabet = Alphabet(with_anchors=False),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Dfa:
    """Worklist construction over derivative-class blocks (tag-free).

    The machine tracks no tags, so ``engine.start`` erases the pattern's
    memory and no state holds any.  A plain DFA reads the text as it
    is, so its alphabet has no anchors.
    The ``Dfa`` is a view of the built machine, which it keeps to run.
    """
    if alphabet.with_anchors:
        raise ValueError("a plain DFA is unanchored: use make_tagged_dfa for anchors")
    m = TaggedDfa(r, TagTable(), POLICY_POSIX, alphabet, state_limit).build()
    transitions = tuple(tuple((block, j) for block, j, _ in row) for row in m.transitions)
    return Dfa(alphabet, m.states, transitions, frozenset(m.accepting), m)


def dfa_match(m: Dfa, s) -> bool:
    """Whole-sequence recognition: whether ``m``'s machine matches all of
    ``s``, a string or a sequence of code points.  Like every run, it
    stops in the ∅ state and reads no further symbol."""
    if not isinstance(s, str):
        s = list(s)  # a one-shot iterable is read once, here
        try:
            s = "".join(map(chr, s))
        except (ValueError, OverflowError):
            raise _outside(next(cp for cp in s if not 0 <= cp <= MAX_CODEPOINT)) from None
    res = tagged_dfa_match(_runnable(m), s)
    return res.matched and res.consumed == len(s)


def make_tagged_dfa(
    r: Regex,
    tags: TagTable,
    policy: str = POLICY_POSIX,
    alphabet: Alphabet = Alphabet(),
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> TaggedDfa:
    """Construct a DFA whose transitions carry memory programs."""
    return TaggedDfa(r, tags, policy, alphabet, state_limit).build()


def tagged_dfa_match(m, text: str, stream_offsets: bool = False,
                     observe: Optional[Callable[[int, int], None]] = None) -> MatchResult:
    """The one matching loop: run a ``TaggedDfa``, built or not, over text.

    The loop walks the text and looks each character's interval up in
    the machine's table; an anchored machine first steps through the
    markers that ``TaggedDfa.runs`` lists for the boundary before it.
    Positions count stream symbols, markers included.  Each accepting
    position offers its state's compiled bank, whose cells as they stand
    are the result: under posix the later end wins, otherwise the earlier
    one unless the new bank ranks higher.  The run stops in the ∅ state,
    before the next character.  A character in the state's fast set
    (see ``TaggedDfa``) takes no step: the loop only counts it, and the
    first character outside the set, or the end of the text, closes the
    run by applying the set's program once, at the run's last position,
    and under posix offering that position at an accepting state; equal
    cells never rank higher, so the other policies keep the first offer.
    ``observe(symbol, state)``, if given, sees each stream symbol (a
    character or marker code point) and the state it reached, so it
    turns the skip off.  The loop records each marker's position, and
    nothing per character: ``MatchResult.from_run`` reports the match
    end and cells, each position mapped through ``at`` to a text offset,
    less the markers before it (kept as it is under ``stream_offsets``).
    """
    rows, ascii_ids, cuts, runs, classes = m.rows, m.ascii_ids, m.cuts, m.runs, m.char_classes
    tags = m.tags
    posix = m.policy == POLICY_POSIX
    store: Store = {}
    if m.initial_ops:
        _apply_rel_ops(store, m.initial_ops, 0, tags.num_tags)
    end = cells = None  # the result: match end and its bank's cells
    info = m.accepting.get(0)
    if info is not None:
        end, cells = 0, store.get(info.bank)
    dead = m.dead
    state = p = 0
    prev = EDGE
    fast = ()  # the state's fast set after a symbol of class prev
    marks = []  # stream position of each marker stepped
    # UNIVERSE_END is no character: its interval's run is the closing markers.
    symbols = chain(map(ord, text), (UNIVERSE_END,))
    for cp in symbols:
        k = ascii_ids[cp] if cp < 128 else bisect_right(cuts, cp)
        # A run has a loop of its own, so a step pays only the set test:
        # a run-open flag tested on every character cost more.
        if k in fast:  # the state loops on cp and adds no marker: skip the run
            program = rows[state][k][1]  # the fast set's one program
            for cp in symbols:  # UNIVERSE_END is in no set, so the count stops
                p += 1
                k = ascii_ids[cp] if cp < 128 else bisect_right(cuts, cp)
                if k not in fast:
                    break
            # The run ends before cp: its program once, at its last position.
            for dst, _, writes in program:  # every rebuild is in place (see _fill)
                buf = list(store[dst])
                for slot, offset in writes:
                    buf[slot] = p + offset
                store[dst] = tuple(buf)
            if posix and info is not None:  # the other policies keep the first offer
                end, cells = p, store.get(info.bank)
        for s in runs[prev][k]:
            entry = rows[state][s]
            if entry is None:  # markers are in every anchored alphabet: a miss names cp
                entry = m._fill(state, s, cp)
                dead = m.dead  # an on-demand machine creates ∅ when a run first reaches it
            state, program, info, fast = entry
            if s != k:  # a marker: the text offset stays behind
                marks.append(p)
            if observe is not None:  # an observed run steps every symbol
                observe(cp if s == k else cuts[s - 1], state)
                fast = ()
            p += 1
            if program:  # submatch.apply_program, inlined: a transition's src is a bank
                for dst, src, writes in program:
                    if writes:
                        buf = list(store[src])
                        for slot, offset in writes:
                            buf[slot] = p + offset
                        store[dst] = tuple(buf)
                    else:
                        store[dst] = store[src]
            if info is not None:
                new = store.get(info.bank)
                if (posix or end is None
                        or (new is not None and bank_compare(new, cells, tags) == HIGHER)):
                    end, cells = p, new
        if state == dead:
            break
        prev = classes[k]
    # Position q is at text offset q less the markers stepped before it.
    # A default binds ``marks``: as a closure cell the loop would read it slowly.
    at = ((lambda q: q) if stream_offsets
          else (lambda q, marks=marks: q - bisect_left(marks, q)))
    return MatchResult.from_run(end, cells, tags, at)


# ---------------------------------------------------------------------------
# Automaton -> expression (state elimination via the closure rule)
# ---------------------------------------------------------------------------


def dfa_to_regex(m) -> Regex:
    """Solve the automaton's characteristic equations for the start state.

    ``m`` is a complete machine, a ``Dfa`` or a built ``TaggedDfa``: its
    edges come from ``_edges``, which raises ``ValueError`` at an edge
    not taken yet.  Each state contributes one linear equation over its
    outgoing blocks; states are eliminated highest id first, replacing
    every self-loop ``X = L X + R`` by ``X = L* R`` (sound because every
    loop coefficient consumes at least one symbol).
    """
    n = m.n_states
    coeff: list[dict[int, Regex]] = [dict() for _ in range(n)]
    const: list[Regex] = [EPSILON if i in m.accepting else EMPTY for i in range(n)]
    for i, block, j, _ in _edges(m):
        coeff[i][j] = alt([coeff[i].get(j, EMPTY), sym(block)])
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
    per-state symbol blocks.  A table with no edge from some state on
    some symbol of the alphabet raises ``ValueError``.
    """
    blocks = _minterms(tuple(b for b, _ in row) for row in m.transitions)
    cuts = [b.intersect(m.alphabet.working) for b in blocks]
    reps = [b.pick() for b in cuts if not b.is_empty()]
    for i, row in enumerate(m.transitions):
        missing = m.alphabet.working
        for b, _ in row:
            missing = missing.difference(b)
        if not missing.is_empty():
            raise ValueError(f"state {i} has no edge on {show_class(single(missing.pick()))}:"
                             " the table must cover the alphabet")
    # Each representative's target, by a block scan of the table itself.
    succ = [[next(j for b, j in row if a in b) for a in reps] for row in m.transitions]
    cls = [1 if i in m.accepting else 0 for i in range(m.n_states)]
    while True:
        sig = {}
        nxt = []
        for i in range(m.n_states):
            key = (cls[i], tuple(cls[j] for j in succ[i]))
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


def _op_str(step: Rebuild) -> str:
    dst, src, writes = step
    sets = "".join(f"[{slot}]=p{offset or ''}" for slot, offset in writes)
    return f"b{dst} <- {'unset' if src is None else f'b{src}'}{sets}"


def _op_json(step: Rebuild) -> dict:
    dst, src, writes = step
    return {"bank": dst, "from": src, "sets": [list(w) for w in writes]}


def export_dot(m) -> str:
    """Graphviz rendering of a complete machine (see ``_edges``);
    accepting states are double circles, and a tagged edge's label
    lists its program under its symbols."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  start [shape=point, label=""];']
    for i in range(m.n_states):
        shape = "doublecircle" if i in m.accepting else "circle"
        lines.append(f'  q{i} [shape={shape}, label="q{i}"];')
    lines.append("  start -> q0;")
    for i, block, j, program in _edges(m):
        label = show_class(block)
        if program:
            label += "\\n" + "; ".join(map(_op_str, program))
        label = label.replace('"', '\\"')
        lines.append(f'  q{i} -> q{j} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def export_json(m) -> str:
    """Stable JSON rendering of a complete machine (see ``_edges`` and
    docs/tagged_dfa.schema.json): a ``Dfa`` gives the plain form, a
    ``TaggedDfa`` the tagged one, with programs, banks and tags."""
    plain = isinstance(m, Dfa)
    doc: dict = {
        "states": [show_state(e) for e in m.states],
        "initial": 0,
        "accepting": (sorted(m.accepting) if plain else
                      {str(i): {"bank": info.bank} for i, info in sorted(m.accepting.items())}),
        "transitions": [],
    }
    for i, block, j, program in _edges(m):
        tr = {"from": i, "symbols": show_class(block), "to": j}
        if not plain:
            tr["ops"] = list(map(_op_json, program))
        doc["transitions"].append(tr)
    if not plain:
        tags = {"kinds": list(m.tags.kinds), "groups": [list(p) for p in m.tags.group_pairs]}
        doc.update(initial_ops=list(map(_op_json, m.initial_ops)), bank_count=m.bank_count,
                   policy=m.policy, anchored=m.anchored, tags=tags)
    return json.dumps(doc, indent=2)
