"""The brute-force reference semantics itself."""

import random

import pytest

from drex.charset import ANCHOR_BOW, from_chars, single
from drex.syntax import EARLY, LATE, EPSILON, Tag, cat, comp, parse, sym

from helpers import rand_expr
from oracle import (
    enumerate_language,
    enumerate_matches,
    language_upto,
    member_naive,
)

A = sym(from_chars("a"))
B = sym(from_chars("b"))


def test_member_naive_examples():
    r, _ = parse("(?:a+bb*a)*")
    assert member_naive(r, "bba")
    assert member_naive(r, "")
    assert not member_naive(r, "b")
    assert not member_naive(comp(A), "a")
    assert member_naive(comp(A), "b")
    r, _ = parse("[ab]&[bc]")
    assert member_naive(r, "b")
    assert not member_naive(r, "a")


def test_member_naive_atom_skips_foreign_anchor():
    atom = sym(single(ord("a")))
    assert member_naive(atom, [ANCHOR_BOW, ord("a")])


def test_enumerate_language_examples():
    r, _ = parse("ab*")
    sample = enumerate_language(r, 3, "ab")
    assert sample.as_strings() == {"a", "ab", "abb"}
    assert enumerate_language(EPSILON, 2, "ab").as_strings() == {""}
    r, _ = parse("(?:a+b)*a")
    assert enumerate_language(r, 2, "ab").as_strings() == {"a", "aa", "ba"}


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_language(A, 30, "abcdefgh")


def test_language_upto_agrees_with_enumerate_language():
    rnd = random.Random(21)
    for _ in range(80):
        r = rand_expr(rnd, 4)
        fast = language_upto(r, 4, "abc")
        slow = enumerate_language(r, 4, "abc")
        assert fast == slow.members


def test_enumerate_matches_single_path():
    r = cat(Tag(EARLY, 0), cat(A, Tag(LATE, 1)))
    _, t = parse("(a)")
    assert enumerate_matches(r, t, "a") == {(0, 1)}


def test_enumerate_matches_two_decompositions():
    # both splits of aa over a* a* a leave distinct memories
    r, t = parse("(a*)(a*)a")
    banks = enumerate_matches(r, t, "aa")
    assert (0, 1, 1, 1) in banks  # first star took one symbol
    assert (0, 0, 0, 1) in banks  # first star stayed empty
    assert len(banks) == 2


def test_enumerate_matches_last_crossing_wins():
    # the group inside the star records its final iteration
    r, t = parse("(a)*")
    banks = enumerate_matches(r, t, "aa")
    assert banks == {(1, 2)}


def test_enumerate_matches_skipped_group_unset():
    r, t = parse("(a)*b")
    banks = enumerate_matches(r, t, "b")
    assert banks == {(None, None)}


def test_enumerate_matches_nullable_star_body_stamps():
    # a nullable body performs a final empty pass, as tag evaluation does
    r, t = parse("(a*)*")
    assert enumerate_matches(r, t, "a") == {(1, 1)}
    assert enumerate_matches(r, t, "") == {(0, 0)}


def test_enumerate_matches_guards():
    r, t = parse("(a)")
    with pytest.raises(ValueError):
        enumerate_matches(r, t, "aaaaa")
