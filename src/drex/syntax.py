"""Canonical regular-expression trees and the pattern parser.

The tree covers the extended operator set: symbol classes, star,
concatenation, union, intersection, complement, plus the formal memory
symbols used for submatch tracking (position tags and slot writes;
memory banks are no tree symbol: a tagged state is the tuple of its
bank bodies, see ``submatch``).  A class atom skips the anchor symbols
its class does not name.  Smart constructors rewrite every
expanded-similarity identity on the fly, so two expressions that differ
only by those identities build the same tree.  Nodes are hash-consed:
building a tree equal to a live one returns that very object, so ``==``
is identity and the hash is the object's own, both O(1) whatever the
size of the tree.

Surface syntax (full table in the README):

    literals        any non-operator character
    escapes         \\\\ \\+ \\* \\( \\) \\[ \\] \\& \\~ \\. \\- \\^ \\$ \\\u03b5 \\\u2205 \\n \\t
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
    hash.  Keywords are bound before the lookup; no field has a default.
    A key holds its children, so no live key names a collected node.
    """

    def __call__(cls, *args, **kwargs):
        if kwargs:
            # The dataclass binds the keywords; keep the fields.
            probe = super().__call__(*args, **kwargs)
            args = tuple(getattr(probe, f) for f in cls.__dataclass_fields__)
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

    It consumes one symbol of its class, after any run of the anchor
    symbols the class does not name.  A class naming every anchor skips
    none, so it matches exactly one symbol.
    """

    chars: CharSet


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
ANCHOR_RUN = Star(Sym(ANCHORS))  # pads complement operands and the stream end


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
        return (k, r.chars.bounds)
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


def sym(chars: CharSet) -> Regex:
    if chars.is_empty():
        return EMPTY
    return Sym(chars)


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


def _flat(terms, kind) -> list[Regex]:
    flat: list[Regex] = []
    for t in terms:
        if isinstance(t, kind):
            flat.extend(t.terms)
        else:
            flat.append(t)
    return flat


def alt(terms) -> Regex:
    out: list[Regex] = []
    seen = set()
    has_plain_eps = False
    for t in _flat(terms, Alt):
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
    flat = _flat(terms, Inter)
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
    """Strip tags and pending writes; the language is unchanged.

    A tree without memory, a complement among them, is returned as it is.
    """
    if not has_memory(r):
        return r
    if isinstance(r, (Tag, Write)):
        return EPSILON
    if isinstance(r, Star):
        return star(erase_memory(r.body))
    if isinstance(r, Cat):
        return cat(erase_memory(r.head), erase_memory(r.tail))
    if isinstance(r, Alt):
        return alt([erase_memory(t) for t in r.terms])
    if isinstance(r, Inter):
        return inter([erase_memory(t) for t in r.terms])
    return r


def comp(r: Regex) -> Regex:
    # The complement of a tagged language ignores memory: positions
    # recorded inside could never delimit a submatch, and stamped
    # positions inside a complement would defeat the finiteness of the
    # derivative set.  So no complement holds memory.
    r = erase_memory(r)
    if isinstance(r, Not):
        return r.body
    if _is_any_star(r):
        return EMPTY
    return Not(r)


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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


POLICY_POSIX = "posix"
POLICY_PRE_ORDER = "pre-order"
POLICY_POST_ORDER = "post-order"
POLICIES = (POLICY_POSIX, POLICY_PRE_ORDER, POLICY_POST_ORDER)


@dataclass(frozen=True)
class SyntaxOptions:
    policy: str = POLICY_POSIX  # one of POLICIES
    posix_subpatterns: bool = False


# The symbol vocabulary, stated once: the parser reads these two tables
# and the printer reads them backwards.  An escape names one symbol.
_ESCAPES = {
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
    "\u03b5": ord("\u03b5"),
    "\u2205": ord("\u2205"),
    "n": ord("\n"),
    "t": ord("\t"),
    "A": ANCHOR_BOT,
    "<": ANCHOR_BOW,
    ">": ANCHOR_EOW,
    "z": ANCHOR_EOT,
}

# A bare glyph outside a class is one tree node.
_GLYPHS = {
    ".": Sym(ALL_BASE),
    "^": Sym(single(ANCHOR_BOL)),
    "$": Sym(single(ANCHOR_EOL)),
    "\u03b5": EPSILON,
    "\u2205": EMPTY,
}


class _Parser:
    """Recursive descent over the documented surface grammar."""

    def __init__(self, pattern: str):
        self.s = pattern
        self.i = 0
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
        return self.chain("+", alt, self.conj)

    def conj(self):
        return self.chain("&", inter, self.concat)

    def chain(self, op: str, join, operand):
        """Operands separated by the infix ``op``; ``join`` builds two or more."""
        terms = [operand()]
        while self.peek() == op:
            self.take()
            terms.append(operand())
        return (join, terms) if len(terms) > 1 else terms[0]

    def concat(self):
        parts = []
        while True:
            c = self.peek()
            if c == "" or c in ")+&":
                break
            parts.append(self.clos())
        if not parts:
            return EPSILON
        return (cat_all, parts) if len(parts) > 1 else parts[0]

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
        if c in _GLYPHS:
            self.take()
            return _GLYPHS[c]
        if c == "\\":
            return sym(single(self._char()))
        if not c:
            raise self.error("unexpected end of pattern")
        if c in "*)]":
            raise self.error(f"unexpected {c!r}")
        self.take()
        return sym(single(ord(c)))

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

    def _char(self) -> int:
        """One literal or escaped symbol; a bad escape is reported at its backslash."""
        c = self.take()
        if c == "\\":
            e = self.take()
            if e in _ESCAPES:
                return _ESCAPES[e]
            self.i -= 2  # at the backslash
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
            lo = self._char()
            if (
                self.peek() == "-"
                and self.i + 1 < len(self.s)
                and self.s[self.i + 1] != "]"
            ):
                self.take()
                hi = self._char()
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
        return sym(from_ranges(ranges))


class _Builder:
    """One walk from the parser's tree to a ``Regex``.

    A leaf is a ``Regex`` already, and a concatenation, union or
    intersection names its smart constructor; star, ``~`` and group are
    the only cases, because pair numbering builds them.

    A pair is a capture group or, under ``posix_subpatterns`` with the
    posix policy, a bare starred subpattern: POSIX gives unparenthesized
    varying subpatterns the same left-to-right longest-match status as
    groups, and a hidden tag pair realizes that through the bank order.
    A pair is numbered by the order in which pairs open (posix,
    pre-order) or close (post-order); both counts are known once its
    body is built.
    """

    def __init__(self, options: SyntaxOptions):
        self.post_order = options.policy == POLICY_POST_ORDER
        self.wrap_stars = options.posix_subpatterns and options.policy == POLICY_POSIX
        self.opens = 0
        self.closes = 0
        self.close_kinds: dict[int, str] = {}
        self.group_pairs: dict[int, tuple[int, int]] = {}

    def build(self, node, group_body: bool = False) -> Regex:
        if isinstance(node, Regex):
            return node
        kind = node[0]
        if kind == "star":
            if self.wrap_stars and not group_body:
                return self.pair(None, False, node)
            return star(self.build(node[1]))
        if kind == "comp":
            # Positions inside a complement never capture: no hidden pairs.
            wrap, self.wrap_stars = self.wrap_stars, False
            body = self.build(node[1])
            self.wrap_stars = wrap
            # Anchors may interleave any raw text, so the complement is taken
            # of the anchor-padded language; raw-string behavior is unchanged.
            return comp(cat(body, ANCHOR_RUN))
        if kind == "group":
            return self.pair(node[1], node[2], node[3])
        return kind(map(self.build, node[1]))  # cat_all, alt or inter

    def pair(self, gid, lazy: bool, body) -> Regex:
        """Build ``body`` between the open and close tags of a new pair."""
        opened = self.opens
        self.opens += 1
        r = self.build(body, group_body=True)
        closed = self.closes
        self.closes += 1
        i = closed if self.post_order else opened
        close_kind = EARLY if lazy else LATE
        self.close_kinds[i] = close_kind
        if gid is not None:
            self.group_pairs[gid] = (2 * i, 2 * i + 1)
        return cat(Tag(EARLY, 2 * i), cat(r, Tag(close_kind, 2 * i + 1)))


def parse(pattern: str, options: SyntaxOptions = SyntaxOptions()) -> tuple[Regex, TagTable]:
    """Parse pattern text into a canonical tree and its tag table.

    Capture group ``i`` (counting opening brackets left to right) maps to
    one tag pair; pair numbering and closing-tag kinds follow the
    disambiguation policy recorded in ``options``.
    """
    if options.policy not in POLICIES:
        raise ValueError(f"unknown policy {options.policy!r}")
    b = _Builder(options)
    regex = b.build(_Parser(pattern).parse())
    kinds = tuple(k for i in range(len(b.close_kinds)) for k in (EARLY, b.close_kinds[i]))
    return regex, TagTable(kinds, tuple(b.group_pairs[g] for g in sorted(b.group_pairs)))


# ---------------------------------------------------------------------------
# Pretty printing (used by trace output and the DOT/JSON exports)
# ---------------------------------------------------------------------------

# A symbol the parser reads from an escape, or from a glyph naming that
# one symbol, prints as that escape or glyph.
_SHOWN = {cp: "\\" + e for e, cp in _ESCAPES.items()}
_SHOWN.update((node.chars.pick(), g) for g, node in _GLYPHS.items()
              if isinstance(node, Sym) and node.chars.count() == 1)


def _show_char(cp: int) -> str:
    if cp in _SHOWN:
        return _SHOWN[cp]
    c = chr(cp)
    return c if c.isprintable() else f"\\x{cp:04x}"


def show_class(cs: CharSet) -> str:
    if cs == ALL_BASE:
        return "."
    if cs in (FULL, ANCHORS):
        # every anchor on its own, after the base symbols' "." in FULL
        anchors = "".join(map(_show_char, ANCHORS.codepoints()))
        return "[" + ("." if cs == FULL else "") + anchors + "]"
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
        return show_class(r.chars)
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
