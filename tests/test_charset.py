import pytest
from hypothesis import given
from hypothesis import strategies as st

from drex.charset import (
    ANCHOR_BOT,
    ANCHOR_EOT,
    ANCHORS,
    ALL_BASE,
    CharSet,
    EMPTY_SET,
    FULL,
    UNIVERSE_END,
    from_chars,
    from_ranges,
    interval_mask,
    is_anchor,
    mask_charset,
    mask_edges,
    single,
)


def test_membership_and_ranges():
    cs = from_ranges([(10, 20), (30, 30)])
    assert 10 in cs and 20 in cs and 30 in cs
    assert 9 not in cs and 21 not in cs and 29 not in cs
    assert list(cs.ranges()) == [(10, 20), (30, 30)]
    assert cs.count() == 12


def test_union_intersect_difference():
    a = from_ranges([(0, 10)])
    b = from_ranges([(5, 15)])
    assert list(a.union(b).ranges()) == [(0, 15)]
    assert list(a.intersect(b).ranges()) == [(5, 10)]
    assert list(a.difference(b).ranges()) == [(0, 4)]


def test_complement_round_trip():
    a = from_chars("ax")
    assert a.complement().complement() == a
    assert EMPTY_SET.complement() == FULL


def test_overlapping_input_ranges_normalize():
    assert from_ranges([(3, 7), (5, 9)]) == from_ranges([(3, 9)])
    assert from_ranges([(7, 3)]) == from_ranges([(3, 7)])


def test_anchor_zone():
    assert is_anchor(ANCHOR_BOT) and is_anchor(ANCHOR_EOT)
    assert not is_anchor(ord("a"))
    assert ANCHORS.intersect(ALL_BASE).is_empty()
    assert single(ANCHOR_BOT).union(ALL_BASE) == ALL_BASE.union(single(ANCHOR_BOT))


def test_pick_smallest_and_empty_guard():
    assert from_chars("zb").pick() == ord("b")
    with pytest.raises(ValueError):
        EMPTY_SET.pick()


# Canonical sets over a small universe: an even number of strictly
# increasing boundaries.
SMALL = 24
charsets = st.lists(st.integers(0, SMALL), unique=True, max_size=10).map(
    lambda xs: CharSet(tuple(sorted(xs)[: len(xs) // 2 * 2])))


def members(cs: CharSet, upto: int = UNIVERSE_END) -> set[int]:
    b = cs.bounds
    return {p for lo, hi in zip(b[::2], b[1::2]) for p in range(lo, min(hi, upto))}


def assert_canonical(cs: CharSet) -> None:
    b = cs.bounds
    assert len(b) % 2 == 0
    assert all(x < y for x, y in zip(b, b[1:])), b


@given(charsets, charsets)
def test_set_ops_agree_with_python_sets(x, y):
    for got, want in ((x.union(y), members(x) | members(y)),
                      (x.intersect(y), members(x) & members(y)),
                      (x.difference(y), members(x) - members(y))):
        assert_canonical(got)
        assert members(got) == want
    for p in range(SMALL + 2):
        assert (p in x) == (p in members(x)), p


@given(charsets)
def test_complement_agrees_with_python_sets(x):
    c = x.complement()
    assert_canonical(c)
    assert members(c, SMALL + 1) == set(range(SMALL + 1)) - members(x)
    assert c.count() == UNIVERSE_END - x.count()
    assert c.bounds[-1] == UNIVERSE_END


@given(charsets, charsets, st.lists(st.integers(0, SMALL), max_size=6))
def test_interval_masks_are_sets_between_cut_points(x, y, extra):
    # Over cuts that hold every bound, a set is the mask of the intervals
    # it covers: & and | act on masks as on sets, each run's edges are
    # the bits where membership flips, and the mask maps back to the set.
    cuts = sorted({*x.bounds, *y.bounds, *extra, SMALL + 1})
    mx, my = interval_mask(x, cuts), interval_mask(y, cuts)
    for cs, m in ((x, mx), (y, my), (x.intersect(y), mx & my), (x.union(y), mx | my)):
        assert interval_mask(cs, cuts) == m
        assert mask_charset(m, cuts) == cs
        assert [cuts[k - 1] for k in mask_edges(m)] == list(cs.bounds)
        assert {k for k in range(1, len(cuts)) if m >> k & 1} == {
            k for k in range(1, len(cuts)) if cuts[k - 1] in cs}
