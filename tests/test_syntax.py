"""Smart constructors, canonical identities, parsing, tag tables."""

import gc
import random

import pytest

from drex import syntax
from drex.charset import ALL_BASE, ANCHOR_BOL, ANCHOR_EOL, ANCHORS, FULL, from_chars, single
from drex.syntax import (
    Alt,
    Cat,
    EARLY,
    EMPTY,
    EPSILON,
    Inter,
    LATE,
    Not,
    ParseError,
    Regex,
    Star,
    Sym,
    SyntaxOptions,
    Tag,
    TagTable,
    TOP,
    Write,
    alt,
    cat,
    comp,
    inter,
    order_key,
    parse,
    show,
    show_class,
    star,
    sym,
    _ESCAPES,
    _INTERNED,
    _show_char,
)

from drex.submatch import apply_program, disambiguate, normalize_step

from helpers import rand_expr, strings_upto
from oracle import member_naive

A = sym(from_chars("a"))
B = sym(from_chars("b"))
C = sym(from_chars("c"))

LAZY1 = TagTable((EARLY, EARLY), ((0, 1),))


def _group(*terms):
    """Disambiguate ``(bank, term)`` pairs over all-unset banks."""
    store = {b: (None, None) for b, _ in terms}
    return disambiguate(list(terms), LAZY1, store, 0)


class TestSimilarityIdentities:
    """Every identity of the expanded similarity set holds as a rewrite."""

    def test_union(self):
        assert alt([A, A]) == A
        assert alt([A, B]) == alt([B, A])
        assert alt([alt([A, B]), C]) == alt([A, alt([B, C])])
        assert alt([EMPTY, A]) == A
        assert alt([TOP, A]) == TOP

    def test_intersection(self):
        assert inter([A, A]) == A
        assert inter([A, B]) == inter([B, A])
        assert inter([inter([A, B]), C]) == inter([A, inter([B, C])])
        assert inter([EMPTY, A]) == EMPTY
        assert inter([TOP, A]) == A

    def test_concat(self):
        assert cat(cat(A, B), C) == cat(A, cat(B, C))
        assert cat(EMPTY, A) == EMPTY
        assert cat(A, EMPTY) == EMPTY
        assert cat(EPSILON, A) == A
        assert cat(A, EPSILON) == A

    def test_star(self):
        assert star(star(A)) == star(A)
        assert star(EPSILON) == EPSILON
        assert star(EMPTY) == EPSILON

    def test_complement(self):
        assert comp(comp(A)) == A
        # memory is erased first, so no complement holds a complement
        assert comp(cat(Tag(EARLY, 0), comp(A))) == A

    def test_memory_eps_absorbs_plain_eps(self):
        # eps + a memory-carrying empty string absorbs the epsilon (a
        # recorded empty match beats an unrecorded one)
        assert alt([EPSILON, Write(0, 3)]) == Write(0, 3)
        # a plain nullable alternative does not absorb the epsilon
        assert EPSILON in alt([EPSILON, A]).terms

    def test_write_runs_merge_last_wins(self):
        r = cat(Write(0, 1), cat(Write(0, 2), A))
        assert r == cat(Write(0, 2), A)
        r = cat(Write(1, 5), cat(Write(0, 5), A))
        assert r == cat(Write(0, 5), cat(Write(1, 5), A))

    def test_write_hoists_from_inter_and_comp(self):
        r = inter([cat(Write(0, 2), A), B])
        assert r == cat(Write(0, 2), inter([A, B]))
        # a complement holds no memory: its operand's writes are erased
        assert comp(cat(Write(1, 4), A)) == comp(A)

    def test_bank_absorbs_leading_writes_and_merges(self):
        # a write-headed body is the bank's pending run, kept as it is
        body = cat(Write(1, 1), cat(Write(0, 0), A))
        assert body == cat(Write(0, 0), cat(Write(1, 1), A))
        store = {1: (None, None)}
        assert normalize_step([(1, body)], LAZY1, store, 4) == (
            (A,), ((1, 1, ((0, 0), (1, 1))),), {1: (4, 5)})
        assert store == {1: (None, None)}
        # a union body gives every term its own copy of the bank it
        # reads, with its own writes
        union = alt([cat(Write(0, 0), A), cat(Write(0, 1), B)])
        state, program, cells = normalize_step([(1, union)], LAZY1, store, 4)
        assert state == (A, B)
        assert sorted(program) == [(1, 1, ((0, 0),)), (2, 1, ((0, 1),))]
        assert cells == {1: (4, None), 2: (5, None)}
        assert store == {1: (None, None)}


def test_canonicalization_idempotent_on_random_trees():
    rnd = random.Random(99)

    def rebuild(r):
        if isinstance(r, Star):
            return star(rebuild(r.body))
        if isinstance(r, Not):
            return comp(rebuild(r.body))
        if isinstance(r, Cat):
            return cat(rebuild(r.head), rebuild(r.tail))
        if isinstance(r, Alt):
            return alt([rebuild(t) for t in r.terms])
        if isinstance(r, Inter):
            return inter([rebuild(t) for t in r.terms])
        return r

    for _ in range(300):
        r = rand_expr(rnd, rnd.randint(1, 5))
        assert rebuild(r) == r


def test_normalization_preserves_language():
    # language(normalized) == language(naive construction), via the oracle
    rnd = random.Random(5)
    for _ in range(60):
        x = rand_expr(rnd, 3)
        y = rand_expr(rnd, 2)
        pairs = [
            (alt([x, y]), lambda s: member_naive(x, s) or member_naive(y, s)),
            (inter([x, y]), lambda s: member_naive(x, s) and member_naive(y, s)),
            (comp(x), lambda s: not member_naive(x, s)),
        ]
        for built, ref in pairs:
            for s in strings_upto("ab", 4):
                assert member_naive(built, s) == ref(s), show(built)


class TestEqualModBanks:
    """Disambiguation groups terms equal after erasing the bank they
    read and their pending writes."""

    def test_identical_erasures(self):
        # one group: the written bank ranks higher and survives as bank 1
        state, program, cells = _group((1, star(A)), (2, cat(Write(0, 3), star(A))))
        assert state == (star(A),)
        assert program == ((1, 2, ((0, 3),)),)
        assert cells == {1: (3, None)}
        assert _group((1, star(A)), (1, star(B)))[0] == (star(A), star(B))

    def test_positional_pairing(self):
        # equal term lists read from different banks give one state, and
        # each of its banks gets the cells of the bank its term read
        # (t1's late tag is written at the step's position, 9).  With
        # banks (1, 2) the program swaps them, a cycle it must park.
        t1, t2 = cat(star(A), Tag(LATE, 1)), EPSILON
        for banks in ((1, 2), (4, 5)):
            store = dict(zip(banks, ((1, 1), (2, 2))))
            state, program, cells = normalize_step(list(zip(banks, (t1, t2))), LAZY1, store, 9)
            assert state == (EPSILON, t1)
            run = dict(store)
            apply_program(run, program, 9, 2)
            assert {b: run[b] for b in cells} == cells == {1: (2, 2), 2: (1, 9)}
            assert store == dict(zip(banks, ((1, 1), (2, 2))))

    def test_equivalence_relation(self):
        rnd = random.Random(3)
        trees = [rand_expr(rnd, 3) for _ in range(40)]
        for r in trees:
            assert len(_group((1, r), (2, r))[0]) == 1
        for r in trees:
            for s in trees:
                assert _group((1, r), (2, s))[0] == _group((1, s), (2, r))[0]


class TestParser:
    def test_grammar_precedence(self):
        r, _ = parse("ab*")
        assert r == cat(A, star(B))

    def test_three_star_classes(self):
        r, _ = parse("[ab]*[bc]*[ac]*")
        want = cat(
            star(sym(from_chars("ab"))),
            cat(star(sym(from_chars("bc"))), star(sym(from_chars("ac")))),
        )
        assert r == want

    def test_capture_tags_and_table(self):
        r, t = parse("(a*)(a*)a")
        assert t.num_groups == 2
        assert t.group_pairs == ((0, 1), (2, 3))
        assert t.kinds == (EARLY, LATE, EARLY, LATE)
        want = cat(
            Tag(EARLY, 0),
            cat(star(A), cat(Tag(LATE, 1),
                cat(Tag(EARLY, 2), cat(star(A), cat(Tag(LATE, 3), A))))),
        )
        assert r == want

    def test_lazy_group_kinds(self):
        _, t = parse("(?la*)(a*)")
        assert t.kinds == (EARLY, EARLY, EARLY, LATE)

    def test_post_order_numbering(self):
        # pairs are numbered at closing brackets
        _, t = parse("(?l(?la*)(a*))a", SyntaxOptions(policy="post-order"))
        assert t.group_pairs == ((4, 5), (0, 1), (2, 3))
        assert t.kinds == (EARLY, EARLY, EARLY, LATE, EARLY, EARLY)

    def test_union_intersection_complement(self):
        r, _ = parse("a+b&c")
        assert isinstance(r, Alt)
        r, _ = parse("~a*")  # complement binds the starred atom
        for st, want in [("a", False), ("", False), ("b", True), ("ba", True)]:
            assert member_naive(r, st) == want

    def test_empty_class_is_empty_language(self):
        r, _ = parse("[]")
        assert r == EMPTY

    def test_empty_branches_and_epsilon(self):
        r, _ = parse("a+")
        assert member_naive(r, "") and member_naive(r, "a")
        r, _ = parse("()")
        assert member_naive(r, "")

    def test_class_ranges_and_escapes(self):
        r, _ = parse("[a-c]")
        assert r == sym(from_chars("abc"))
        # a range whose ends are one anchor is that anchor
        assert parse(r"[\A-\A]")[0] == parse(r"[\A]")[0] == parse(r"\A")[0]
        r, _ = parse(r"\*\+\~")
        assert member_naive(r, "*+~")

    def test_newline_and_tab_escapes_name_their_code_points(self):
        assert parse(r"\n")[0] is sym(single(10))
        assert parse(r"[\t]")[0] is sym(single(9))
        assert show_class(single(10)) == r"\n"

    def test_errors_carry_position(self):
        for pat, pos in [("(a", 0), ("a)", 1), ("[ab", 3), (r"\q", 0), ("a**)", 3)]:
            with pytest.raises(ParseError) as e:
                parse(pat)
            assert e.value.position == pos
        for pat, pos in [("~", 1), ("a~", 2), ("(?", 1)]:
            with pytest.raises(ParseError, match="^unexpected end of pattern") as e:
                parse(pat)
            assert e.value.position == pos
        for pat, pos in [("[z-a]", 1), (r"x[\A-z]", 2)]:
            with pytest.raises(ParseError, match="^reversed class range") as e:
                parse(pat)
            assert e.value.position == pos
        for pat, pos in [(r"[a-\z]", 1), (r"x[\A-\z]", 2), (r"[b\<-\>]", 2)]:
            with pytest.raises(ParseError, match="^anchor escape in class range") as e:
                parse(pat)
            assert e.value.position == pos
        for pat, pos, msg in [("*a", 0, r"^unexpected '\*'"), ("]a", 0, "^unexpected ']'"),
                              (r"[\q]", 1, r"^unknown escape \\q"), ("[\\", 1, "^dangling escape")]:
            with pytest.raises(ParseError, match=msg) as e:
                parse(pat)
            assert e.value.position == pos

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="^unknown policy 'x'$"):
            parse("a", SyntaxOptions(policy="x"))

    def test_non_capturing_groups(self):
        r, t = parse("(?:a+b)c")
        assert t.num_tags == 0
        assert member_naive(r, "ac") and member_naive(r, "bc")

    def test_subpattern_wrapping_inserts_hidden_pairs(self):
        _, t = parse("[ab]*(a)", SyntaxOptions(posix_subpatterns=True))
        assert t.num_groups == 1
        assert t.num_tags == 4  # one hidden pair for the bare star
        # The hidden pair is tags 0 and 1 and belongs to no user group.
        assert not {0, 1} & {tag for pair in t.group_pairs for tag in pair}

    def test_unknown_modifier(self):
        with pytest.raises(ParseError):
            parse("(?xa)")


_PAD = r"[\A^\<\>$\z]*"  # the anchor run a parsed complement pads with


@pytest.mark.parametrize("pattern, policy, subpatterns, tree, kinds, pairs", [
    # hidden pairs: a bare star gets one, numbered where it opens
    ("(a)*", "posix", True, "τ0(τ2aλ3)*λ1", "ELEL", ((2, 3),)),
    ("a**", "posix", True, "τ0(τ2a*λ3)*λ1", "ELEL", ()),
    # a star that is a group's whole body gets none
    ("((?:a*))", "posix", True, "τ0a*λ1", "EL", ((0, 1),)),
    ("(a*b)", "posix", True, "τ0τ2a*λ3bλ1", "ELEL", ((0, 1),)),
    # inside ~ a star gets no pair, a group is numbered but erased
    ("a*~(b*)", "posix", True, "τ0a*λ1~(b*" + _PAD + ")", "ELEL", ((2, 3),)),
    ("(a)~((b)c*)(d*)", "posix", True, "τ0aλ1~(bc*" + _PAD + ")τ6d*λ7",
     "ELELELEL", ((0, 1), (2, 3), (4, 5), (6, 7))),
    ("(a)~((b)c*)(d)", "post-order", False, "τ0aλ1~(bc*" + _PAD + ")τ6dλ7",
     "ELELELEL", ((0, 1), (4, 5), (2, 3), (6, 7))),
    # post-order numbers pairs where they close; a lazy pair closes early
    ("(?l(a)b*)(c)", "post-order", False, "τ2τ0aλ1b*τ3τ4cλ5", "ELEEEL",
     ((2, 3), (0, 1), (4, 5))),
    # hidden pairs are a posix rule: pre-order ignores the option
    ("(a)*b*(c*)", "pre-order", True, "(τ0aλ1)*b*τ2c*λ3", "ELEL", ((0, 1), (2, 3))),
])
def test_tag_numbering(pattern, policy, subpatterns, tree, kinds, pairs):
    r, t = parse(pattern, SyntaxOptions(policy=policy, posix_subpatterns=subpatterns))
    want_kinds = tuple(EARLY if k == "E" else LATE for k in kinds)
    assert (show(r), t.kinds, t.group_pairs) == (tree, want_kinds, pairs)


def test_order_key_blind_to_banks():
    # A state's order is the order of its bodies: the bank a term reads
    # and its pending writes do not move it.
    s1 = _group((1, cat(Write(0, 5), star(A))), (2, B))[0]
    s2 = _group((9, star(A)), (3, B))[0]
    assert s1 == s2 == tuple(sorted((star(A), B), key=order_key))


def test_show_round_trips_through_parse():
    # languages must survive printing + reparsing (the parser pads
    # complements with anchor runs, so trees need not be identical)
    rnd = random.Random(17)
    for _ in range(80):
        r = rand_expr(rnd, 3)
        printed = show(r)
        r2, _ = parse(printed)
        for s in strings_upto("abc", 3):
            assert member_naive(r2, s) == member_naive(r, s), printed


def test_escaped_eps_and_empty_symbols_reparse():
    # show escapes the symbols ε and ∅; parse reads the escapes back
    for pattern in ["[ε]", "[∅]", "[∅b]ε"]:
        r, _ = parse(pattern)
        assert parse(show(r))[0] == r, show(r)


def test_printed_symbols_reparse():
    # The printer writes each symbol of the vocabulary as the parser's
    # escape or glyph for it, so the text parses back to that symbol,
    # alone and, but for the line anchors, inside a class.  Printable
    # ASCII is checked too, so a symbol dropped from the table shows.
    line_anchors = (ANCHOR_BOL, ANCHOR_EOL)
    symbols = {*range(0x20, 0x7F), *map(ord, "\n\t\u00e9"), *_ESCAPES.values(), *line_anchors}
    for cp in sorted(symbols):
        shown = _show_char(cp)
        assert parse(shown)[0] == sym(single(cp)), shown
        if cp not in line_anchors:
            assert parse("[" + shown + "]")[0] == sym(single(cp)), shown
            assert parse("[a" + shown + "z]")[0] == sym(from_chars("az").union(single(cp))), shown


def test_whole_alphabet_labels():
    # The anchors print one by one, FULL's after the "." of the base
    # symbols; no other class is shown this way.
    labels = [show_class(cs) for cs in (ALL_BASE, ANCHORS, FULL)]
    assert labels == [".", r"[\A^\<\>$\z]", r"[.\A^\<\>$\z]"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "inside a class ^ and $ are literal characters, and no escape names "
    "a line anchor there"))
@pytest.mark.parametrize("cp", [ANCHOR_BOL, ANCHOR_EOL])
def test_line_anchor_in_a_class_reparses(cp):
    assert parse("[" + _show_char(cp) + "]")[0] == sym(single(cp))


@pytest.mark.xfail(strict=True, raises=ParseError, reason=(
    "a non-printable symbol prints as \\xNNNN, an escape the parser "
    "does not know"))
def test_non_printable_symbol_reparses():
    assert parse(_show_char(1))[0] == sym(single(1))


class TestHashConsing:
    def test_independent_parses_share_one_tree(self):
        pattern = "((a+b)*)c&~(?:.*(?la)b)"
        assert parse(pattern)[0] is parse(pattern)[0]

    def test_defaults_filled_before_lookup(self):
        assert Write(0, 1) == Write(0, 1)
        assert Write(0, 1) is Write(slot=0, value=1)
        cs = from_chars("xy")
        assert Sym(cs) is Sym(chars=from_chars("yx"))

    def test_node_class_is_part_of_identity(self):
        assert Star(A) is not Not(A)
        assert Star(A) != Not(A)

    def test_equal_nodes_hash_equal(self):
        # Equal trees are one object, so the object's own hash and
        # equality serve; a tree built again after the first one was
        # dropped is equal in structure, though it may be a new object.
        for seed in range(20):
            r = rand_expr(random.Random(seed), 4)
            assert rand_expr(random.Random(seed), 4) is r
            text = repr(r)
            del r
            gc.collect()
            assert repr(rand_expr(random.Random(seed), 4)) == text
        nodes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, Regex)]
        assert len(nodes) == 11
        for c in nodes:
            assert c.__hash__ is object.__hash__ and c.__eq__ is object.__eq__, c

    def test_node_classes_are_final(self):
        # Tree code dispatches on ``type(r)``, which a subclass would escape.
        nodes = [c for c in vars(syntax).values()
                 if isinstance(c, type) and issubclass(c, Regex) and c is not Regex]
        assert len(nodes) == 10
        for c in nodes:
            assert c.__bases__ == (Regex,), c
            with pytest.raises(TypeError, match=f"final: Sub subclasses {c.__name__}"):
                type(c)("Sub", (c,), {"__slots__": ()})

    def test_unreferenced_nodes_leave_the_table(self):
        gc.collect()
        before = len(_INTERNED)
        node = Cat(Write(98765, 4321), Tag(LATE, 98765))
        assert len(_INTERNED) == before + 3
        del node
        gc.collect()
        assert len(_INTERNED) == before
