"""Hypothesis-driven invariants for the value-level primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from drex.anchors import inject_anchors
from drex.submatch import EQUAL, bank_compare
from drex.syntax import EARLY, LATE, TagTable

from helpers import strip_anchors

kinds = st.lists(st.sampled_from([EARLY, LATE]), min_size=2, max_size=6)
cells = st.tuples(*[st.one_of(st.none(), st.integers(0, 5))] * 4)


def table_for(kind_list):
    return TagTable(tuple(kind_list), ())


@given(cells, cells)
def test_bank_compare_antisymmetric(c1, c2):
    t = table_for([EARLY, LATE, EARLY, LATE])
    assert bank_compare(c1, c2, t) == -bank_compare(c2, c1, t)


@given(cells, cells, cells)
@settings(max_examples=300)
def test_bank_compare_transitive(c1, c2, c3):
    t = table_for([EARLY, LATE, EARLY, LATE])
    if bank_compare(c1, c2, t) >= 0 and bank_compare(c2, c3, t) >= 0:
        assert bank_compare(c1, c3, t) >= 0


@given(cells)
def test_bank_compare_reflexive_equal(c):
    t = table_for([LATE, LATE, EARLY, EARLY])
    assert bank_compare(c, c, t) == EQUAL


@given(st.text(alphabet=st.sampled_from("ab1 _\n!"), max_size=40))
def test_inject_anchors_round_trip(text):
    stream = inject_anchors(text)
    assert strip_anchors(stream) == text
    origins = stream.boundary_origin
    assert list(origins) == sorted(origins)
    assert origins[-1] == len(text)
