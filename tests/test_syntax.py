"""Smart constructors, canonical identities, parsing, tag tables."""

import gc
import random

import pytest

from drex.charset import from_chars
from drex.syntax import (
    Alt,
    Bank,
    Cat,
    EARLY,
    EMPTY,
    EPSILON,
    Inter,
    LATE,
    Not,
    ParseError,
    Star,
    Sym,
    SyntaxOptions,
    Tag,
    TOP,
    Write,
    alt,
    cat,
    comp,
    inter,
    order_key,
    parse,
    show,
    star,
    sym,
    _INTERNED,
)

from helpers import equal_mod_banks, rand_expr, strings_upto
from oracle import language_upto, member_naive

A = sym(from_chars("a"))
B = sym(from_chars("b"))
C = sym(from_chars("c"))


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

    def test_eps_plus_bank(self):
        # eps + bank absorbs the epsilon (a recorded empty match beats an
        # unrecorded one)
        bare = Bank(2, ((0, 1),), EPSILON)
        assert alt([EPSILON, bare]) == bare
        nullable = Bank(1, (), star(A))
        assert alt([EPSILON, nullable]) == nullable
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
        r = comp(cat(Write(1, 4), A))
        assert r == cat(Write(1, 4), comp(A))

    def test_bank_absorbs_leading_writes_and_merges(self):
        from drex.syntax import bank

        assert bank(1, (), cat(Write(0, 0), cat(Write(1, 1), A))) == Bank(
            1, ((0, 0), (1, 1)), A
        )
        # a bank heading a chain owns the whole alternative
        assert cat(Bank(1, (), A), B) == Bank(1, (), cat(A, B))


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
    def test_identical_erasures(self):
        r1 = Bank(1, (), star(A))
        r2 = Bank(2, ((0, 3),), star(A))
        assert equal_mod_banks(r1, r2) == [(1, 2)]
        assert equal_mod_banks(Bank(1, (), star(A)), Bank(1, (), star(B))) is None

    def test_positional_pairing(self):
        r1 = alt([Bank(1, (), cat(star(A), Tag(LATE, 1))), Bank(2, (), EPSILON)])
        r2 = alt([Bank(4, (), cat(star(A), Tag(LATE, 1))), Bank(5, (), EPSILON)])
        pairing = equal_mod_banks(r1, r2)
        assert pairing is not None
        assert sorted(pairing) == [(1, 4), (2, 5)]

    def test_equivalence_relation(self):
        rnd = random.Random(3)
        trees = [rand_expr(rnd, 3) for _ in range(40)]
        for r in trees:
            assert equal_mod_banks(r, r) is not None
        for r in trees:
            for s in trees:
                assert (equal_mod_banks(r, s) is None) == (
                    equal_mod_banks(s, r) is None
                )


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
        r, _ = parse(r"\*\+\~")
        assert member_naive(r, "*+~")

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


def test_order_key_blind_to_banks():
    r1 = Bank(1, ((0, 5),), star(A))
    r2 = Bank(9, (), star(A))
    assert order_key(r1) == order_key(r2)


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


class TestHashConsing:
    def test_independent_parses_share_one_tree(self):
        pattern = "((a+b)*)c&~(?:.*(?la)b)"
        assert parse(pattern)[0] is parse(pattern)[0]

    def test_defaults_filled_before_lookup(self):
        e = cat(A, B)
        assert Bank(1, (), e) == Bank(1, (), e)
        assert Bank(1, (), e) is Bank(bank=1, writes=(), body=e)
        cs = from_chars("xy")
        assert Sym(cs) is Sym(cs, True) is Sym(chars=from_chars("yx"))
        assert Sym(cs) is not Sym(cs, False)

    def test_node_class_is_part_of_identity(self):
        assert Star(A) is not Not(A)
        assert Star(A) != Not(A)

    def test_equal_nodes_hash_equal(self):
        # The hash follows the structure, not the object: a tree built
        # again after the first one was dropped hashes the same.
        for seed in range(20):
            r = rand_expr(random.Random(seed), 4)
            assert rand_expr(random.Random(seed), 4) is r
            h, text = hash(r), repr(r)
            del r
            gc.collect()
            again = rand_expr(random.Random(seed), 4)
            assert repr(again) == text and hash(again) == h

    def test_unreferenced_nodes_leave_the_table(self):
        gc.collect()
        before = len(_INTERNED)
        node = Cat(Write(98765, 4321), Tag(LATE, 98765))
        assert len(_INTERNED) == before + 3
        del node
        gc.collect()
        assert len(_INTERNED) == before
