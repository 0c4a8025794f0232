"""Anchor injection and anchor-sensitive combinators."""

import random

from drex.anchors import (
    BOL,
    BOT,
    BOW,
    EOL,
    EOT,
    EOW,
    inject_anchors,
)
from drex.charset import from_chars, single
from drex.engine import match_full, match_lazy
from drex.semantics import derive
from drex.syntax import EMPTY, EPSILON, TagTable, comp, parse, show, sym

from helpers import (
    exactly_symbol,
    forbid_anchor_prefix,
    forbid_word_boundary,
    rand_expr,
    require_word_boundary_between,
    strings_upto,
    strip_anchors,
)
from oracle import member_naive


def marks(stream):
    names = {BOT: "<T", BOL: "<L", BOW: "<W", EOW: "W>", EOL: "L>", EOT: "T>"}
    return "".join(names[c] if c in names else chr(c) for c in stream.symbols)


class TestInjectAnchors:
    def test_hello_world(self):
        st = inject_anchors("Hello, world!")
        assert marks(st) == "<T<L<WHelloW>, <WworldW>!L>T>"

    def test_empty_text(self):
        assert marks(inject_anchors("")) == "<T<LL>T>"

    def test_word_wrapping(self):
        assert marks(inject_anchors("aaa")) == "<T<L<WaaaW>L>T>"

    def test_digits_are_not_word_characters(self):
        assert marks(inject_anchors("1a")) == "<T<L1<WaW>L>T>"
        assert marks(inject_anchors("111")) == "<T<L111L>T>"

    def test_newlines(self):
        assert marks(inject_anchors("a\nb")) == "<T<L<WaW>L>\n<L<WbW>L>T>"
        assert marks(inject_anchors("\n")) == "<T<LL>\n<LL>T>"

    def test_round_trip(self):
        rnd = random.Random(1)
        texts = ["", "a", "ab c", "x_y 12, z!", "a\n\nb", "\n", "  "]
        texts += ["".join(rnd.choice("ab1 _\n") for _ in range(rnd.randint(0, 12)))
                  for _ in range(50)]
        for t in texts:
            st = inject_anchors(t)
            assert strip_anchors(st) == t

    def test_boundary_origin_monotone(self):
        st = inject_anchors("ab cd")
        assert list(st.boundary_origin) == sorted(st.boundary_origin)
        assert st.boundary_origin[0] == 0
        assert st.boundary_origin[-1] == 5

    def test_boundary_table_equals_the_positional_rules(self):
        # The table keyed by the classes around a boundary gives, on
        # every short text, the stream the rules stated per text
        # position give.
        texts = strings_upto("a_1 \n", 5)
        assert len(texts) == 3906
        for t in texts:
            st, want = inject_anchors(t), _inject_by_position(t)
            assert (st.symbols, st.boundary_origin) == want, t


def _inject_by_position(text):
    """Symbols and boundary origins of ``text``, with each marker's rule
    tested at every text position."""
    n = len(text)

    def word(i):
        return 0 <= i < n and (text[i].isascii() and text[i].isalpha() or text[i] == "_")

    symbols, origins = [], [0]
    for i in range(n + 1):
        marks = []
        if i == 0:
            marks.append(BOT)
        if i == 0 or text[i - 1] == "\n":
            marks.append(BOL)
        if word(i) and not word(i - 1):
            marks.append(BOW)
        if word(i - 1) and not word(i):
            marks.append(EOW)
        if i == n or text[i] == "\n":
            marks.append(EOL)
        if i == n:
            marks.append(EOT)
        for m in marks:
            symbols.append(m)
            origins.append(i)
        if i < n:
            symbols.append(ord(text[i]))
            origins.append(i + 1)
    return tuple(symbols), tuple(origins)


class TestCombinators:
    def test_exactly_symbol_derivatives(self):
        ex = exactly_symbol(ord("a"))
        assert derive(ex, ord("a")) == EPSILON
        assert derive(ex, BOW) == EMPTY
        assert derive(ex, ord("b")) == EMPTY

    def test_exactly_symbol_language(self):
        ex = exactly_symbol(ord("a"))
        transparent = sym(single(ord("a")), transparent=True)
        # brute-force membership over short anchor-bearing strings
        universe = [[], [ord("a")], [BOW, ord("a")], [ord("a"), BOW], [BOW], [BOT]]
        assert [member_naive(ex, s) for s in universe] == [
            False, True, False, False, False, False]
        assert member_naive(transparent, [BOW, ord("a")])

    def test_forbid_anchor_prefix(self):
        r, _ = parse("ab")
        f = forbid_anchor_prefix(r)
        assert derive(f, ord("a")) == derive(r, ord("a"))
        assert derive(f, BOT) == EMPTY

    def test_forbid_word_boundary(self):
        r, _ = parse("ab")
        f = forbid_word_boundary(r)
        # line anchors keep the guard in place
        d = derive(f, BOL)
        assert d != EMPTY
        assert d == forbid_word_boundary(derive(r, BOL))
        # a word-boundary symbol kills the match
        assert derive(f, BOW) == EMPTY
        assert derive(f, EOW) == EMPTY
        # base symbols drop the guard
        assert derive(f, ord("a")) == derive(r, ord("a"))

    def test_require_word_boundary_between(self):
        s, _ = parse("a")
        t, _ = parse("b")
        r = require_word_boundary_between(s, t)
        assert member_naive(r, [ord("a"), BOW, ord("b")])
        assert member_naive(r, [ord("a"), EOW, ord("b")])
        assert not member_naive(r, [ord("a"), ord("b")])


class TestAnchoredMatching:
    def test_four_case_grid(self):
        r, t = parse("[a1][a1]*\\<[a1]*")
        cases = {"aaa": False, "111": False, "aa1": False, "1a": True}
        for text, want in cases.items():
            res = match_full(r, t, text)
            got = res.matched and res.groups[0] == (0, len(text))
            assert got == want, text

    def test_anchor_transparency(self):
        # surface patterns without anchor literals are oblivious to the
        # injected anchors (complements get anchor-padded by the parser)
        rnd = random.Random(71)
        for _ in range(60):
            pattern = show(rand_expr(rnd, 3, "ab"))
            r, t = parse(pattern)
            for s in strings_upto("ab", 4):
                raw = match_lazy(r, s)
                res = match_full(r, t, s)
                anchored = res.matched and res.groups[0] == (0, len(s))
                assert anchored == raw, (pattern, s)

    def test_line_anchors(self):
        r, t = parse("^ab$")
        assert match_full(r, t, "ab").groups[0] == (0, 2)
        r2, t2 = parse("a$\\nb")
        assert match_full(r2, t2, "a\nb").matched

    def test_text_anchors(self):
        r, t = parse("\\Aab\\z")
        assert match_full(r, t, "ab").matched
        r2, t2 = parse("a\\zb")
        assert not match_full(r2, t2, "ab").matched
