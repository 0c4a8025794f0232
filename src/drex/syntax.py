"""Canonical regular-expression trees and the pattern parser.

The tree covers the extended operator set: symbol classes, star,
concatenation, union, intersection, complement, plus the formal memory
symbols used for submatch tracking (position tags and slot writes;
memory banks are no tree symbol: a tagged state is the tuple of its
bank bodies, see ``submatch``).  Smart constructors rewrite every
expanded-similarity identity on the fly, so two expressions that differ
only by those identities build the same tree.  Nodes are hash-consed: building a tree equal to a
live one returns that very object, so ``==`` is identity and the hash
is the object's own, both O(1) whatever the size of the tree.

Surface syntax (full table in the README):

    literals        any non-operator character
    escapes         \\\\ \\+ \\* \\( \\) \\[ \\] \\& \\~ \\. \\n \\t \\-
    classes         [abc], [a-c]; [] denotes the empty language
    union           r + s
    intersection    r & s
    complement      ~r          (prefix, binds like a closure operand)
    star            r*
    groups          (r) greedy capture, (?l r) lazy capture,
                    (?: r) non-capturing
    anchors         \\A start of text, ^ start of line, \\< start of word,
                    \\> end of word, $ end of line, \\z end of text
    any symbol      .
    epsilon         the empty pattern, an empty group or union branch
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .charset import (
    ALL_BASE,
    ANCHOR_BOL,
    ANCHOR_BOT,
    ANCHOR_EOL,
    ANCHOR_EOT,
    ANCHOR_BOW,
    ANCHOR_EOW,
    ANCHORS,
    FULL,
    CharSet,
    from_ranges,
    is_anchor,
    single,
)

EARLY = "early"
LATE = "late"


# Every live node, keyed by its class and fields; holds no node alive.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    """Metaclass that hash-conses expression nodes.

    A constructor call with the fields of a live node returns that node,
    so structurally equal trees are one object and identity is the
    hash.  Defaults are filled in before the lookup.  A key holds its
    children, so no live key names a collected node.
    """

    def __call__(cls, *args, **kwargs):
        fields = cls.__dataclass_fields__
        if kwargs or len(args) != len(fields):
            # The dataclass binds keywords and defaults; keep the fields.
            probe = super().__call__(*args, **kwargs)
            args = tuple(getattr(probe, f) for f in fields)
        key = (cls, *args)
        node = _INTERNED.get(key)
        if node is None:
            node = super().__call__(*args)
            _INTERNED[key] = node
        return node


class Regex(metaclass=_Interned):
    """Base class for canonical expression nodes.

    Nodes are hash-consed, so they keep ``object``'s identity equality
    and hash.
    """

    __slots__ = ("__weakref__",)


_node = dataclass(frozen=True, eq=False, slots=True)


@_node
class Empty(Regex):
    pass


@_node
class Eps(Regex):
    pass


@_node
class Sym(Regex):
    """A symbol-class atom.

    Transparent atoms tolerate any run of anchor symbols not named by the
    class in front of the one symbol they consume; plain atoms match
    exactly one symbol.
    """

    chars: CharSet
    transparent: bool = True


@_node
class Star(Regex):
    body: Regex


@_node
class Cat(Regex):
    head: Regex
    tail: Regex


@_node
class Alt(Regex):
    terms: tuple[Regex, ...]


@_node
class Inter(Regex):
    terms: tuple[Regex, ...]


@_node
class Not(Regex):
    body: Regex


@_node
class Tag(Regex):
    kind: str  # EARLY or LATE
    index: int


@_node
class Write(Regex):
    """Pending update of one memory slot; the engine stamps a step offset."""

    slot: int
    value: int


EMPTY = Empty()
EPSILON = Eps()
TOP = Not(EMPTY)  # the universal language, kept in this canonical shape


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def is_nullable(r: Regex) -> bool:
    """Whether the denoted language contains the empty string."""
    if isinstance(r, (Eps, Star, Tag, Write)):
        return True
    if isinstance(r, (Empty, Sym)):
        return False
    if isinstance(r, Cat):
        return is_nullable(r.head) and is_nullable(r.tail)
    if isinstance(r, Alt):
        return any(is_nullable(t) for t in r.terms)
    if isinstance(r, Inter):
        return all(is_nullable(t) for t in r.terms)
    if isinstance(r, Not):
        return not is_nullable(r.body)
    raise TypeError(f"not a Regex: {r!r}")


@lru_cache(maxsize=None)
def has_memory(r: Regex) -> bool:
    """Whether any tag or pending write occurs in the tree."""
    if isinstance(r, (Tag, Write)):
        return True
    if isinstance(r, (Empty, Eps, Sym)):
        return False
    if isinstance(r, (Star, Not)):
        return has_memory(r.body)
    if isinstance(r, Cat):
        return has_memory(r.head) or has_memory(r.tail)
    if isinstance(r, (Alt, Inter)):
        return any(has_memory(t) for t in r.terms)
    raise TypeError(f"not a Regex: {r!r}")


# No tree holds a bank, so this is 0; perfbench/worker.py clears this
# cache by name before every call, so the name stays until the
# benchmark drops it.
@lru_cache(maxsize=None)
def max_bank(r: Regex) -> int:
    return 0


@lru_cache(maxsize=None)
def is_memory_eps(r: Regex) -> bool:
    """Whether ``r`` denotes exactly {empty string} via memory symbols.

    Such terms absorb a plain epsilon alternative: recording a position
    beats not recording one.
    """
    if isinstance(r, (Tag, Write, Eps)):
        return True
    if isinstance(r, Cat):
        return is_memory_eps(r.head) and is_memory_eps(r.tail)
    return False


def _is_any_star(r: Regex) -> bool:
    return (
        isinstance(r, Star)
        and isinstance(r.body, Sym)
        and r.body.chars == FULL
    )


def cat_atoms(r: Regex) -> Iterator[Regex]:
    """Iterate the concatenation spine left to right."""
    while isinstance(r, Cat):
        yield r.head
        r = r.tail
    if not isinstance(r, Eps):
        yield r


def alt_terms(r: Regex) -> tuple[Regex, ...]:
    return r.terms if isinstance(r, Alt) else (r,)


def head_atom(r: Regex) -> Regex:
    return r.head if isinstance(r, Cat) else r


# ---------------------------------------------------------------------------
# Canonical ordering
# ---------------------------------------------------------------------------

_RANK = {
    Empty: 0,
    Eps: 1,
    Sym: 2,
    Tag: 3,
    Write: 4,
    Star: 5,
    Cat: 6,
    Alt: 7,
    Inter: 8,
    Not: 9,
}


@lru_cache(maxsize=None)
def order_key(r: Regex) -> tuple:
    """Total-order key: equal keys are the same canonical tree."""
    k = _RANK[type(r)]
    if isinstance(r, (Empty, Eps)):
        return (k,)
    if isinstance(r, Sym):
        return (k, r.chars.bounds, r.transparent)
    if isinstance(r, Tag):
        return (k, r.kind, r.index)
    if isinstance(r, Write):
        return (k, r.slot, r.value)
    if isinstance(r, (Star, Not)):
        return (k, order_key(r.body))
    if isinstance(r, Cat):
        return (k, order_key(r.head), order_key(r.tail))
    return (k, tuple(order_key(t) for t in r.terms))


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def sym(chars: CharSet, transparent: bool = True) -> Regex:
    if chars.is_empty():
        return EMPTY
    return Sym(chars, transparent)


def star(r: Regex) -> Regex:
    if isinstance(r, Star):
        return r
    if isinstance(r, (Eps, Empty)):
        return EPSILON
    return Star(r)


def _merge_writes(base, extra) -> tuple[tuple[int, int], ...]:
    # Later writes to the same slot overwrite earlier ones.
    d = dict(base)
    for slot, value in extra:
        d[slot] = value
    return tuple(sorted(d.items()))


def writes_chain(writes: Iterable[tuple[int, int]], rest: Regex = EPSILON) -> Regex:
    """Prefix ``rest`` with a canonical run of slot writes.

    ``writes`` must already be deduped; ``rest`` must not itself start
    with a write (callers strip those first).
    """
    r = rest
    for slot, value in sorted(writes, reverse=True):
        r = Cat(Write(slot, value), r) if not isinstance(r, Eps) else Write(slot, value)
    return r


def _split_write_run(r: Regex) -> tuple[list[tuple[int, int]], Regex]:
    """Peel the maximal leading run of slot writes off a spine."""
    run: list[tuple[int, int]] = []
    while True:
        if isinstance(r, Write):
            run.append((r.slot, r.value))
            return run, EPSILON
        if isinstance(r, Cat) and isinstance(r.head, Write):
            run.append((r.head.slot, r.head.value))
            r = r.tail
            continue
        return run, r


def cat(a: Regex, b: Regex) -> Regex:
    if isinstance(a, Empty) or isinstance(b, Empty):
        return EMPTY
    if isinstance(a, Eps):
        return b
    if isinstance(a, Cat):
        # Right-associate: (x y) z -> x (y z)
        return cat(a.head, cat(a.tail, b))
    if isinstance(b, Eps):
        return a
    if _memory_headed_union(a):
        # Distribute memory-headed unions so pendings stay at term heads.
        return alt([cat(t, b) for t in a.terms])
    if isinstance(a, Write):
        run, rest = _split_write_run(b)
        merged = _merge_writes((), [(a.slot, a.value), *run])
        if isinstance(rest, Alt):
            # keep every alternative's writes at its own head
            return alt([cat(writes_chain(merged), t) for t in rest.terms])
        return writes_chain(merged, rest)
    return Cat(a, b)


def cat_all(parts) -> Regex:
    r = EPSILON
    for p in reversed(list(parts)):
        r = cat(p, r)
    return r


def alt(terms) -> Regex:
    flat: list[Regex] = []
    for t in terms:
        if isinstance(t, Alt):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out: list[Regex] = []
    seen = set()
    has_plain_eps = False
    for t in flat:
        if isinstance(t, Empty):
            continue
        if t == TOP:
            return TOP
        if isinstance(t, Eps):
            has_plain_eps = True
            continue
        if t not in seen:
            seen.add(t)
            out.append(t)
    if has_plain_eps and not any(is_memory_eps(t) for t in out):
        # Memory-carrying empty-string terms absorb the plain epsilon.
        out.append(EPSILON)
    if not out:
        return EMPTY
    out.sort(key=order_key)
    return out[0] if len(out) == 1 else Alt(tuple(out))


def _memory_headed_union(r: Regex) -> bool:
    return isinstance(r, Alt) and any(
        isinstance(head_atom(t), (Write, Tag)) for t in r.terms
    )


def inter(terms) -> Regex:
    flat: list[Regex] = []
    for t in terms:
        if isinstance(t, Inter):
            flat.extend(t.terms)
        else:
            flat.append(t)
    # Intersection distributes over unions; doing so whenever a branch
    # carries memory keeps slot writes at term heads, where banks can
    # pick them up (tag-free shapes stay untouched).
    for i, t in enumerate(flat):
        if _memory_headed_union(t):
            others = flat[:i] + flat[i + 1:]
            return alt([inter(others + [branch]) for branch in t.terms])
    # Slot writes commute with intersection: hoist leading runs out.
    hoisted: list[tuple[int, int]] = []
    stripped: list[Regex] = []
    for t in flat:
        run, rest = _split_write_run(t)
        hoisted.extend(run)
        stripped.append(rest)
    out: list[Regex] = []
    seen = set()
    for t in stripped:
        if isinstance(t, Empty):
            return EMPTY
        if t == TOP:
            continue
        if t not in seen:
            seen.add(t)
            out.append(t)
    if any(isinstance(t, Eps) for t in out):
        rest = [t for t in out if not isinstance(t, Eps)]
        if not all(is_nullable(t) for t in rest):
            core: Regex = EMPTY
        elif not any(has_memory(t) for t in rest):
            core = EPSILON
        else:
            # keep the node: the other operands still carry tag memory
            out.sort(key=order_key)
            core = Inter(tuple(out))
    elif not out:
        core = TOP
    elif len(out) == 1:
        core = out[0]
    else:
        out.sort(key=order_key)
        core = Inter(tuple(out))
    if hoisted and not isinstance(core, Empty):
        return writes_chain(_merge_writes((), hoisted), core)
    return core


def erase_memory(r: Regex) -> Regex:
    """Strip tags and pending writes; the language is unchanged."""
    if isinstance(r, (Tag, Write)):
        return EPSILON
    if isinstance(r, Star):
        return star(erase_memory(r.body))
    if isinstance(r, Not):
        return comp(erase_memory(r.body))
    if isinstance(r, Cat):
        return cat(erase_memory(r.head), erase_memory(r.tail))
    if isinstance(r, Alt):
        return alt([erase_memory(t) for t in r.terms])
    if isinstance(r, Inter):
        return inter([erase_memory(t) for t in r.terms])
    return r


def comp(r: Regex) -> Regex:
    if isinstance(r, Not):
        return r.body
    # Slot writes commute with complement: hoist leading runs out.
    run, rest = _split_write_run(r)
    if run:
        return writes_chain(_merge_writes((), run), comp(rest))
    # The complement of a tagged language ignores memory: positions
    # recorded inside could never delimit a submatch, and stamped
    # positions inside a complement would defeat the finiteness of the
    # derivative set.
    if has_memory(rest):
        rest = erase_memory(rest)
    if _is_any_star(rest):
        return EMPTY
    return Not(rest)


# ---------------------------------------------------------------------------
# Tag bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TagTable:
    """Per-tag kind (EARLY or LATE) plus the user-facing group numbering.

    Tags come in pairs: tag ``i`` opens or closes with tag ``i ^ 1``.
    """

    kinds: tuple[str, ...] = ()
    group_pairs: tuple[tuple[int, int], ...] = ()

    @property
    def num_tags(self) -> int:
        return len(self.kinds)

    @property
    def num_groups(self) -> int:
        return len(self.group_pairs)

    def kind(self, index: int) -> str:
        return self.kinds[index]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


POLICIES = ("posix", "pre-order", "post-order")


@dataclass(frozen=True)
class SyntaxOptions:
    policy: str = "posix"  # posix | pre-order | post-order
    posix_subpatterns: bool = False
    base: CharSet = ALL_BASE


_CHAR_ESCAPES = {
    "\\": ord("\\"),
    "+": ord("+"),
    "*": ord("*"),
    "(": ord("("),
    ")": ord(")"),
    "[": ord("["),
    "]": ord("]"),
    "&": ord("&"),
    "~": ord("~"),
    ".": ord("."),
    "-": ord("-"),
    "^": ord("^"),
    "$": ord("$"),
    "n": ord("\n"),
    "t": ord("\t"),
}

_ANCHOR_ESCAPES = {
    "A": ANCHOR_BOT,
    "<": ANCHOR_BOW,
    ">": ANCHOR_EOW,
    "z": ANCHOR_EOT,
}


class _Pair:
    __slots__ = ("gid", "lazy", "open_seq", "close_seq", "tags")

    def __init__(self, gid, lazy, open_seq):
        self.gid = gid
        self.lazy = lazy
        self.open_seq = open_seq
        self.close_seq = -1
        self.tags = (-1, -1)


class _Parser:
    """Recursive descent over the documented surface grammar."""

    def __init__(self, pattern: str, options: SyntaxOptions):
        self.s = pattern
        self.i = 0
        self.opts = options
        self.n_groups = 0

    def error(self, msg: str) -> ParseError:
        return ParseError(msg, self.i)

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self) -> str:
        c = self.peek()
        self.i += 1
        return c

    def parse(self):
        t = self.disj()
        if self.i < len(self.s):
            raise self.error(f"unexpected {self.s[self.i]!r}")
        return t

    def disj(self):
        terms = [self.conj()]
        while self.peek() == "+":
            self.take()
            terms.append(self.conj())
        return ("alt", terms) if len(terms) > 1 else terms[0]

    def conj(self):
        terms = [self.concat()]
        while self.peek() == "&":
            self.take()
            terms.append(self.concat())
        return ("inter", terms) if len(terms) > 1 else terms[0]

    def concat(self):
        parts = []
        while True:
            c = self.peek()
            if c == "" or c in ")+&":
                break
            parts.append(self.clos())
        if not parts:
            return ("eps",)
        return ("cat", parts) if len(parts) > 1 else parts[0]

    def clos(self):
        if self.peek() == "~":
            self.take()
            return ("comp", self.clos())
        node = self.atom()
        while self.peek() == "*":
            self.take()
            node = ("star", node)
        return node

    def atom(self):
        c = self.peek()
        if c == "(":
            return self.group()
        if c == "[":
            return self.charclass()
        if c == ".":
            self.take()
            return ("class", self.opts.base)
        if c == "^":
            self.take()
            return ("class", single(ANCHOR_BOL))
        if c == "$":
            self.take()
            return ("class", single(ANCHOR_EOL))
        if c == "\\":
            self.take()
            e = self.peek()
            if e in _ANCHOR_ESCAPES:
                self.take()
                return ("class", single(_ANCHOR_ESCAPES[e]))
            if e in _CHAR_ESCAPES:
                self.take()
                return ("class", single(_CHAR_ESCAPES[e]))
            self.i -= 1
            raise self.error(f"unknown escape \\{e}" if e else "dangling escape")
        if c == "\u03b5":
            self.take()
            return ("eps",)
        if c == "\u2205":
            self.take()
            return ("empty",)
        if not c:
            raise self.error("unexpected end of pattern")
        if c in "*)]":
            raise self.error(f"unexpected {c!r}")
        self.take()
        return ("class", single(ord(c)))

    def group(self):
        open_pos = self.i
        self.take()  # (
        lazy = False
        capture = True
        if self.peek() == "?":
            self.take()
            m = self.take()
            if m == "l":
                lazy = True
            elif m == ":":
                capture = False
            else:
                self.i = open_pos + 1
                raise self.error(f"unknown group modifier (?{m!r}" if m else "unexpected end of pattern")
        gid = None
        if capture:
            self.n_groups += 1
            gid = self.n_groups
        body = self.disj()
        if self.peek() != ")":
            self.i = open_pos
            raise self.error("unbalanced group")
        self.take()
        if not capture:
            return body
        return ("group", gid, lazy, body)

    def _class_char(self) -> int:
        c = self.take()
        if c == "\\":
            e = self.take()
            if e in _ANCHOR_ESCAPES:
                return _ANCHOR_ESCAPES[e]
            if e in _CHAR_ESCAPES:
                return _CHAR_ESCAPES[e]
            self.i -= 2  # at the backslash, as outside a class
            raise self.error(f"unknown escape \\{e}" if e else "dangling escape")
        return ord(c)

    def charclass(self):
        self.take()  # [
        ranges: list[tuple[int, int]] = []
        while True:
            c = self.peek()
            if c == "":
                raise self.error("unterminated class")
            if c == "]":
                self.take()
                break
            start = self.i
            lo = self._class_char()
            if (
                self.peek() == "-"
                and self.i + 1 < len(self.s)
                and self.s[self.i + 1] != "]"
            ):
                self.take()
                hi = self._class_char()
                if hi < lo:
                    self.i = start
                    raise self.error("reversed class range")
                if lo != hi and (is_anchor(lo) or is_anchor(hi)):
                    # Anchors are symbols of their own, not a code-point span.
                    self.i = start
                    raise self.error("anchor escape in class range")
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        return ("class", from_ranges(ranges))


def _wrap_subpatterns(tree):
    """Wrap bare starred subpatterns in hidden capture-like pairs.

    POSIX gives unparenthesized varying subpatterns the same
    left-to-right longest-match status as groups; wrapping them in tag
    pairs realizes that through the bank order.
    """

    def walk(node, parent_is_group):
        kind = node[0]
        if kind == "star":
            inner = ("star", walk(node[1], False))
            return inner if parent_is_group else ("group", None, False, inner)
        if kind in ("alt", "inter", "cat"):
            return (kind, [walk(t, False) for t in node[1]])
        if kind == "group":
            return ("group", node[1], node[2], walk(node[3], True))
        if kind == "comp":
            return node  # positions inside a complement never capture
        return node

    return walk(tree, False)


def _collect_pairs(tree):
    pairs: list[_Pair] = []
    node_pairs: dict[int, _Pair] = {}
    opens = itertools.count()
    closes = itertools.count()

    def walk(node):
        kind = node[0]
        if kind == "group":
            p = _Pair(node[1], node[2], next(opens))
            pairs.append(p)
            node_pairs[id(node)] = p
            walk(node[3])
            p.close_seq = next(closes)
        elif kind in ("alt", "inter", "cat"):
            for t in node[1]:
                walk(t)
        elif kind in ("star", "comp"):
            walk(node[1])

    walk(tree)
    return pairs, node_pairs


def _build(node, node_pairs) -> Regex:
    kind = node[0]
    if kind == "eps":
        return EPSILON
    if kind == "empty":
        return EMPTY
    if kind == "class":
        return sym(node[1], transparent=True)
    if kind == "star":
        return star(_build(node[1], node_pairs))
    if kind == "cat":
        return cat_all(_build(t, node_pairs) for t in node[1])
    if kind == "alt":
        return alt(_build(t, node_pairs) for t in node[1])
    if kind == "inter":
        return inter(_build(t, node_pairs) for t in node[1])
    if kind == "comp":
        body = _build(node[1], node_pairs)
        # Anchors may interleave any raw text, so the complement is taken
        # of the anchor-padded language; raw-string behavior is unchanged.
        return comp(cat(body, star(sym(ANCHORS, transparent=False))))
    if kind == "group":
        p = node_pairs[id(node)]
        open_tag, close_tag = p.tags
        body = _build(node[3], node_pairs)
        close_kind = EARLY if p.lazy else LATE
        return cat(Tag(EARLY, open_tag), cat(body, Tag(close_kind, close_tag)))
    raise AssertionError(kind)


def parse(pattern: str, options: SyntaxOptions = SyntaxOptions()) -> tuple[Regex, TagTable]:
    """Parse pattern text into a canonical tree and its tag table.

    Capture group ``i`` (counting opening brackets left to right) maps to
    one tag pair; pair numbering and closing-tag kinds follow the
    disambiguation policy recorded in ``options``.
    """
    if options.policy not in POLICIES:
        raise ValueError(f"unknown policy {options.policy!r}")
    p = _Parser(pattern, options)
    tree = p.parse()
    if options.posix_subpatterns and options.policy == "posix":
        tree = _wrap_subpatterns(tree)
    pairs, node_pairs = _collect_pairs(tree)
    if options.policy == "post-order":
        order = sorted(pairs, key=lambda g: g.close_seq)
    else:
        order = sorted(pairs, key=lambda g: g.open_seq)
    kinds: list[str] = []
    group_pairs: dict[int, tuple[int, int]] = {}
    for i, g in enumerate(order):
        g.tags = (2 * i, 2 * i + 1)
        kinds += [EARLY, EARLY if g.lazy else LATE]
        if g.gid is not None:
            group_pairs[g.gid] = g.tags
    regex = _build(tree, node_pairs)
    table = TagTable(tuple(kinds), tuple(group_pairs[k] for k in sorted(group_pairs)))
    return regex, table


# ---------------------------------------------------------------------------
# Pretty printing (used by trace output and the DOT/JSON exports)
# ---------------------------------------------------------------------------

_ANCHOR_GLYPHS = {
    ANCHOR_BOT: "\\A",
    ANCHOR_BOL: "^",
    ANCHOR_BOW: "\\<",
    ANCHOR_EOW: "\\>",
    ANCHOR_EOL: "$",
    ANCHOR_EOT: "\\z",
}

_NEEDS_ESCAPE = set("\\+*()[]&~.^$\u03b5\u2205-")


def _show_char(cp: int) -> str:
    if cp in _ANCHOR_GLYPHS:
        return _ANCHOR_GLYPHS[cp]
    c = chr(cp)
    if c in _NEEDS_ESCAPE:
        return "\\" + c
    if c == "\n":
        return "\\n"
    if c == "\t":
        return "\\t"
    if c.isprintable():
        return c
    return f"\\x{cp:04x}"


def show_class(cs: CharSet) -> str:
    if cs == ALL_BASE:
        return "."
    if cs == FULL:
        return "[.\\A^\\<\\>$\\z]"
    if cs == ANCHORS:
        return "[\\A^\\<\\>$\\z]"
    runs = list(cs.ranges())
    if len(runs) == 1 and runs[0][0] == runs[0][1]:
        return _show_char(runs[0][0])
    parts = []
    for lo, hi in runs:
        if lo == hi:
            parts.append(_show_char(lo))
        elif hi - lo == 1:
            parts.append(_show_char(lo) + _show_char(hi))
        else:
            parts.append(f"{_show_char(lo)}-{_show_char(hi)}")
    return "[" + "".join(parts) + "]"


def show(r: Regex) -> str:
    """Render a tree in (extended) surface syntax for humans."""
    return _show(r, 0)


def _show(r: Regex, prec: int) -> str:
    # precedence levels: 0 union, 1 intersection, 2 concat, 3 atom
    if isinstance(r, Empty):
        return "\u2205"
    if isinstance(r, Eps):
        return "\u03b5"
    if isinstance(r, Sym):
        s = show_class(r.chars)
        return s if r.transparent else "!" + s
    if isinstance(r, Tag):
        mark = "\u03c4" if r.kind == EARLY else "\u03bb"
        return f"{mark}{r.index}"
    if isinstance(r, Write):
        return f"s{r.slot}\u2190{r.value}"
    if isinstance(r, Star):
        return _show(r.body, 3) + "*"
    if isinstance(r, Not):
        out = "~" + _show(r.body, 3)
        return f"({out})" if prec > 2 else out
    if isinstance(r, Cat):
        s = "".join(
            _show(a, 3) if isinstance(a, (Alt, Inter)) else _show(a, 2)
            for a in cat_atoms(r)
        )
        return f"({s})" if prec > 2 else s
    if isinstance(r, Alt):
        s = "+".join(_show(t, 1) for t in r.terms)
        return f"({s})" if prec > 0 else s
    if isinstance(r, Inter):
        s = "&".join(_show(t, 2) for t in r.terms)
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a Regex: {r!r}")
