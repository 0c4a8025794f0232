"""The seeded mutants of ``mutants.py`` still name today's source."""

from mutants import MUTANTS, ROOT


def test_each_mutant_fragment_occurs_exactly_once():
    # A refactor that moves or rewrites a fragment must restate its mutant.
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        source = (ROOT / m.path).read_text(encoding="utf-8")
        assert source.count(m.fragment) == 1, (m.name, m.path)
        assert m.fragment != m.replacement, m.name
