"""Memory machinery: tag evaluation, bank order, disambiguation."""

import random

from drex.charset import from_chars
from drex.semantics import nu_ways
from drex.automaton import make_tagged_dfa
from drex.submatch import (
    EQUAL,
    HIGHER,
    LOWER,
    apply_program,
    bank_compare,
    disambiguate,
    extract_submatches,
    order_rebuilds,
    show_state,
    teval,
)
from drex.syntax import (
    EARLY,
    EPSILON,
    LATE,
    Star,
    Tag,
    TagTable,
    Write,
    alt_terms,
    cat,
    inter,
    parse,
    show,
    star,
    sym,
)

from helpers import apply_parallel, rand_tagged, step_terms
from oracle import language_upto

A = sym(from_chars("a"))
B = sym(from_chars("b"))


def table(kinds):
    pairs = tuple((2 * i, 2 * i + 1) for i in range(len(kinds) // 2))
    return TagTable(tuple(kinds), pairs)


GREEDY2 = table([EARLY, LATE, EARLY, LATE])
LAZY2 = table([EARLY, EARLY, EARLY, EARLY])


class TestTeval:
    def test_pending_late_tag_becomes_write(self):
        r = cat(Write(0, 0), Tag(LATE, 1))
        assert teval(r, 1) == cat(Write(0, 0), Write(1, 1))

    def test_nullable_star_body_stamps_whole_pair(self):
        body = cat(Tag(EARLY, 0), cat(star(cat(Tag(EARLY, 2), cat(A, Tag(LATE, 3)))),
                                      Tag(LATE, 1)))
        r = star(body)
        out = teval(r, 4)
        assert out == cat(Write(0, 4), cat(Write(1, 4), r))

    def test_non_nullable_keeps_tags(self):
        r = cat(Tag(EARLY, 0), cat(A, Tag(LATE, 1)))
        assert teval(r, 0) == cat(Write(0, 0), cat(A, Tag(LATE, 1)))

    def test_a_write_stamped_pos_in_the_run_is_the_fixpoint(self):
        # The second write of the run is stamped 5: the term is returned
        # as it is, and the tag after the run stays a tag.
        r = cat(Write(0, 3), cat(Write(1, 5), Tag(LATE, 2)))
        assert teval(r, 5) is r
        # No write stamped 5: the run is kept and the tag is evaluated.
        r = cat(Write(0, 3), cat(Write(1, 4), Tag(LATE, 2)))
        assert teval(r, 5) == cat(Write(0, 3), cat(Write(1, 4), Write(2, 5)))

    def test_idempotent_on_random_tagged_expressions(self):
        rnd = random.Random(1234)
        for _ in range(500):
            r = rand_tagged(rnd, rnd.randint(2, 5), list(range(6)))
            p = rnd.randint(0, 3)
            once = teval(r, p)
            twice = teval(once, p)
            assert once == twice, show(r)

    def test_preserves_language(self):
        rnd = random.Random(4321)
        for _ in range(200):
            r = rand_tagged(rnd, rnd.randint(2, 4), list(range(6)))
            out = teval(r, rnd.randint(0, 3))
            assert language_upto(r, 5, "abc") == language_upto(out, 5, "abc"), show(r)

    def test_emits_all_nullable_subexpression_tags(self):
        # when the whole expression is nullable, every tag sitting in a
        # nullable subexpression turns into a write
        rnd = random.Random(777)
        from drex.syntax import Alt, Cat, Inter, Not, is_nullable

        def nullable_tags(r, inside_comp=False):
            if isinstance(r, Tag):
                return {r.index} if not inside_comp else set()
            if isinstance(r, (Cat, Alt, Inter)):
                parts = (
                    [r.head, r.tail] if isinstance(r, Cat) else list(r.terms)
                )
                out = set()
                if isinstance(r, Cat) and not (
                    is_nullable(r.head) and is_nullable(r.tail)
                ):
                    return set()
                if isinstance(r, Alt):
                    for t in parts:
                        if is_nullable(t):
                            out |= nullable_tags(t, inside_comp)
                    return out
                if isinstance(r, Inter) and not all(is_nullable(t) for t in parts):
                    return set()
                for t in parts:
                    out |= nullable_tags(t, inside_comp)
                return out
            if isinstance(r, Star):
                return nullable_tags(r.body, inside_comp) if is_nullable(r.body) else set()
            if isinstance(r, Not):
                return set()
            return set()

        checked = 0
        for _ in range(400):
            r = rand_tagged(rnd, rnd.randint(1, 4), list(range(4)))
            if not is_nullable(r):
                continue
            out = teval(r, 2)
            expected = nullable_tags(r)
            written = set()
            for term in alt_terms(out):
                ways = nu_ways(term, 2)
                for writes in ways:
                    written |= {s for s, _ in writes}
            if expected:
                checked += 1
                assert expected <= written, show(r)
        assert checked > 20


class TestBankCompare:
    def test_late_slot_prefers_larger(self):
        assert bank_compare((0, 1, 1, 1), (0, 0, 0, 1), GREEDY2) == HIGHER

    def test_early_slots_prefer_smaller(self):
        assert bank_compare((0, 1, 1, 1), (0, 0, 0, 1), LAZY2) == LOWER

    def test_equal(self):
        assert bank_compare((0, 1), (0, 1), GREEDY2) == EQUAL

    def test_unset_loses_either_way(self):
        assert bank_compare((0, None), (0, 3), GREEDY2) == LOWER
        assert bank_compare((None, None), (2, None), LAZY2) == LOWER

    def test_total_preorder(self):
        rnd = random.Random(5)
        cells = [
            tuple(rnd.choice([None, 0, 1, 2]) for _ in range(4)) for _ in range(60)
        ]
        for x in cells:
            assert bank_compare(x, x, GREEDY2) == EQUAL
            for y in cells:
                assert bank_compare(x, y, GREEDY2) == -bank_compare(y, x, GREEDY2)
                for z in cells:
                    if (
                        bank_compare(x, y, GREEDY2) != LOWER
                        and bank_compare(y, z, GREEDY2) != LOWER
                    ):
                        assert bank_compare(x, z, GREEDY2) != LOWER


class TestDisambiguate:
    def worked_state(self):
        # the three-alternative state of the running example, with its
        # banks holding the positions recorded after one symbol; bank i
        # heads the i-th body
        long = cat(star(A), cat(Tag(LATE, 1),
                   cat(Tag(EARLY, 2), cat(star(A), cat(Tag(LATE, 3), A)))))
        short = cat(star(A), cat(Tag(LATE, 3), A))
        bare = EPSILON
        state = (long, short, bare)
        store = {1: (0, None, None, None), 2: (0, 0, 0, None), 3: (0, 0, 0, 0)}
        return state, store

    def test_worked_example_collapse(self):
        state, store = self.worked_state()
        # the symbol at position 1: its writes are offsets from position 2
        d = step_terms(state, ord("a"))
        assert len(set(d)) == 5
        pruned, ops, after = disambiguate(d, GREEDY2, store, 2)
        assert len(pruned) == 3
        new_store = dict(store)
        apply_program(new_store, ops, 2, 4)
        # the surviving banks are 1..3, and the kept ones carry the
        # first-most-longest memories
        cells = {new_store[b] for b in range(1, len(pruned) + 1)}
        assert cells == {
            (0, None, None, None),  # the continuing alternative
            (0, 1, 1, None),        # the late-closing two-star split
            (0, 1, 1, 1),           # the completed match
        }
        assert after == {b: new_store[b] for b in range(1, len(pruned) + 1)}

    def test_lazy_variant_keeps_other_banks(self):
        state, store = self.worked_state()
        d = step_terms(state, ord("a"))
        pruned, ops, after = disambiguate(d, LAZY2, store, 2)
        new_store = dict(store)
        apply_program(new_store, ops, 2, 4)
        cells = {new_store[b] for b in range(1, len(pruned) + 1)}
        assert set(after.values()) == cells
        assert (0, 0, 0, None) in cells  # the earlier-slot bank wins lazily
        assert (0, 0, 0, 1) in cells

    def test_single_term_passthrough(self):
        r = cat(Write(0, 0), star(A))
        pruned, ops, after = disambiguate([(1, r)], GREEDY2, {1: (None,) * 4}, 2)
        assert pruned == (star(A),)
        assert ops == ((1, 1, ((0, 0),)),)
        assert after == {1: (2, None, None, None)}


class TestCompaction:
    def test_dense_renumbering(self):
        terms = [(4, star(A)), (7, star(B))]
        store = {4: (1,), 7: (2,)}
        out, ops, after = disambiguate(terms, TagTable((EARLY,)), store, 0)
        assert out == (star(A), star(B))
        assert sorted(dst for dst, _, _ in ops) == [1, 2]
        assert after == {1: (1,), 2: (2,)}
        apply_program(store, ops, 0, 1)
        got = {b: store[b] for b in range(1, len(out) + 1)}
        assert got == {1: (1,), 2: (2,)}

    def test_sequence_moves_cycle(self):
        store = {1: (10,), 2: (20,), 3: (30,)}
        ops = order_rebuilds({1: (2, ()), 2: (3, ()), 3: (1, ())}, scratch=4)
        apply_program(store, ops, 0, 1)
        assert (store[1], store[2], store[3]) == ((20,), (30,), (10,))


class TestPlans:
    """``order_rebuilds`` against ``helpers.apply_parallel`` on
    hand-written rebuild maps; random maps and the corpus are checked in
    ``test_fuzz.py``."""

    STORE = {1: (10, None, 12), 2: (20, 21, None), 3: (30, 31, 32)}

    def both(self, rebuilds, pos=7):
        program = order_rebuilds(rebuilds, scratch=4)
        want, got = dict(self.STORE), dict(self.STORE)
        apply_parallel(want, [(dst, *rb) for dst, rb in rebuilds.items()], pos, 3)
        apply_program(got, program, pos, 3)
        assert {b: got[b] for b in want} == want
        return program, got

    def test_copies_then_a_write_rebuild_once(self):
        # A survivor that moves and is written gets one step.
        r = cat(Write(0, 0), cat(Write(2, -1), star(A)))
        pruned, program, after = disambiguate([(3, r)], GREEDY2, {3: (None,) * 4}, 2)
        assert pruned == (star(A),)
        assert program == ((1, 3, ((0, 0), (2, -1))),)
        assert after == {1: (2, None, 1, None)}
        program, _ = self.both({1: (2, ()), 2: (3, ((1, 0),))})
        assert program == ((1, 2, ()), (2, 3, ((1, 0),)))

    def test_cycle_parked_in_a_scratch_bank(self):
        program, store = self.both({1: (2, ()), 2: (3, ()), 3: (1, ())})
        assert len(program) == 4 and program[0] == (4, 1, ())
        assert [s[2] for s in program] == [()] * 4
        program, store = self.both({1: (2, ((0, 0),)), 2: (1, ((2, -1),))})
        assert [s[0] for s in program] == [4, 1, 2]
        assert store[1] == (7, 21, None) and store[2] == (10, None, 6)

    def test_the_last_write_to_a_slot_wins(self):
        store = dict(self.STORE)
        apply_program(store, ((1, 1, ((0, -1), (0, 0))),), 7, 3)
        assert store[1] == (7, None, 12)

    def test_a_write_after_a_read_of_its_bank_starts_a_step(self):
        # Bank 1 must receive bank 2 before bank 2's write.
        program, store = self.both({2: (2, ((0, 0),)), 1: (2, ())})
        assert program == ((1, 2, ()), (2, 2, ((0, 0),)))
        assert store[1] == (20, 21, None) and store[2] == (7, 21, None)

    def test_empty_program(self):
        assert order_rebuilds({}, scratch=1) == ()
        # no term survives a step into the ∅ state, ``()``
        assert disambiguate([], GREEDY2, {}, 2) == ((), (), {})

    def test_init_is_no_transition_op(self):
        # Only the initial program opens a bank all unset (src None).
        r, t = parse("(a*)(a*)a")
        m = make_tagged_dfa(r, t)
        assert m.initial_ops[0] == (1, None, ())
        assert all(src is not None for row in m.transitions for _, _, program in row
                   for _, src, _ in program)
        store = {}
        apply_program(store, ((2, None, ((1, 0),)),), 5, 3)
        assert store == {2: (None, 5, None)}

    def test_random_maps_keep_the_parallel_meaning(self):
        # Random maps over up to 6 banks, cycles and self-writes included:
        # the program leaves each bank as the parallel reference does,
        # and writes no bank twice.
        rnd = random.Random(16)
        for _ in range(2000):
            n = rnd.randint(1, 6)
            rebuilds = {}
            for dst in rnd.sample(range(1, n + 1), rnd.randint(0, n)):
                writes = tuple((rnd.randrange(3), rnd.choice((-1, 0)))
                               for _ in range(rnd.choice((0, 0, 1, 2))))
                rebuilds[dst] = (rnd.randint(1, n), writes)
            store = {b: tuple(rnd.choice((None, rnd.randrange(9))) for _ in range(3))
                     for b in range(1, n + 1)}
            want, got = dict(store), dict(store)
            apply_parallel(want, [(dst, *rb) for dst, rb in rebuilds.items()], 5, 3)
            program = order_rebuilds(rebuilds, scratch=n + 1)
            apply_program(got, program, 5, 3)
            assert {b: got[b] for b in want} == want, (rebuilds, program)
            dsts = [dst for dst, _, _ in program]
            assert len(dsts) == len(set(dsts)), program


class TestExtractSubmatches:
    def test_spans_and_unmatched(self):
        spans = extract_submatches((0, 4, None, None), GREEDY2, (0, 1, 1, 2, 2))
        assert spans == [(0, 2), None]

    def test_identity_origin(self):
        spans = extract_submatches((1, 3, 2, 2), GREEDY2)
        assert spans == [(1, 3), (2, 2)]


def test_show_state_renders_bank_bodies():
    # Bank i heads the i-th body; the strings are those the trace and
    # exports printed when a state was a union of bank nodes.
    assert show_state((cat(star(A), B), EPSILON)) == "β1·a*b+β2"
    assert show_state((inter([star(A), cat(A, B)]),)) == "β1·(a*&ab)"
    assert show_state((EPSILON, inter([star(A), cat(A, B)]))) == "β1+β2·(a*&ab)"
    assert show_state((cat(star(A), B),)) == "β1·a*b"
    assert show_state(()) == "∅"
    # a tag-free machine's state is a tree, shown as it is
    assert show_state(cat(star(A), B)) == show(cat(star(A), B)) == "a*b"
