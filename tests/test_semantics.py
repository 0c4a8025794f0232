"""Nullify, derivatives, derivative classes."""

import random

from drex.charset import (
    ANCHOR_BOW,
    ANCHORS,
    FULL,
    Alphabet,
    alphabet_from_chars,
    from_chars,
    single,
)
from drex.semantics import (
    _dca,
    _meet,
    derivative_classes,
    derive,
)
from drex.syntax import (
    Alt,
    Cat,
    EARLY,
    EMPTY,
    EPSILON,
    Empty,
    Eps,
    Inter,
    LATE,
    Not,
    Star,
    Sym,
    Tag,
    Write,
    cat,
    comp,
    has_memory,
    is_nullable,
    parse,
    show,
    star,
    sym,
)

from helpers import (
    NOT_NULLABLE,
    NULLABLE_PLAIN,
    NULLABLE_WITH_MEMORY,
    derive_string,
    is_partition_of,
    nullify,
    rand_expr,
    rand_pattern,
    rand_tagged_pattern,
    strings_upto,
)
from oracle import member_naive

ABC = alphabet_from_chars("abc")
A = sym(from_chars("a"))
B = sym(from_chars("b"))


class TestNullify:
    def test_plain(self):
        assert nullify(star(A)).kind == NULLABLE_PLAIN
        assert nullify(A).kind == NOT_NULLABLE
        assert nullify(EPSILON).kind == NULLABLE_PLAIN

    def test_tagged_concat_not_nullable(self):
        state = (cat(Tag(EARLY, 0), cat(A, Tag(LATE, 1))),)
        assert nullify(state, 0).kind == NOT_NULLABLE

    def test_worked_three_term_expression(self):
        # only the bare bank accepts the empty string; bank i heads the
        # i-th body of a tagged state
        long = cat(star(A), cat(Tag(LATE, 1),
                   cat(Tag(EARLY, 2), cat(star(A), cat(Tag(LATE, 3), A)))))
        short = cat(star(A), cat(Tag(LATE, 3), A))
        bare = EPSILON
        res = nullify((long, short, bare), 2)
        assert res.kind == NULLABLE_WITH_MEMORY
        assert res.entries == ((3, ()),)

    def test_tag_nulls_emit_position(self):
        state = (cat(Tag(EARLY, 0), cat(star(A), Tag(LATE, 1))),)
        res = nullify(state, 5)
        assert res.entries == ((1, ((0, 5), (1, 5))),)

    def test_complement_is_memory_opaque(self):
        r = comp(cat(Tag(EARLY, 0), A))
        assert nullify(r, 1).kind == NULLABLE_PLAIN
        assert nullify(comp(star(A))).kind == NOT_NULLABLE


class TestDerive:
    def test_basic_examples(self):
        r, _ = parse("ab*")
        assert derive(r, ord("a")) == star(B)
        assert derive(star(B), ord("b")) == star(B)
        assert derive(A, ord("b")) == EMPTY
        assert derive(EPSILON, ord("a")) == EMPTY

    def test_transparent_atom_skips_foreign_anchor(self):
        atom = sym(from_chars("ab"), transparent=True)
        assert derive(atom, ANCHOR_BOW) == atom
        assert derive(atom, ord("a")) == EPSILON
        assert derive(atom, ord("c")) == EMPTY

    def test_tag_crossing_emits_pending_write(self):
        # deriving a bank body across an opening tag records the current
        # position as a pending write, leaving the rest of the group pending
        body = cat(Tag(EARLY, 0), cat(A, cat(Tag(LATE, 1), B)))
        d = derive(body, ord("a"), 0)
        assert d == cat(Write(0, 0), cat(Tag(LATE, 1), B))

    def test_derivative_of_complement_commutes(self):
        rnd = random.Random(11)
        for _ in range(100):
            r = rand_expr(rnd, 3)
            for c in "abc":
                assert derive(comp(r), ord(c)) == comp(derive(r, ord(c)))

    def test_derive_string(self):
        r, _ = parse("ab*")
        assert derive_string(r, "abb") == star(B)
        assert derive_string(r, "") == r
        assert derive_string(A, "b") == EMPTY

    def test_memo_is_shared_and_keys_every_inner_node(self):
        # One memo across symbols, positions and trees gives every
        # derivative a fresh call gives; it keys every inner node, memory
        # or not, by (node, symbol, position): bank bodies and the nodes
        # below them alike.
        rnd = random.Random(14)
        memo = {}
        bodies = set()
        for _ in range(150):
            mid, rest = rand_expr(rnd, 3), rand_expr(rnd, 3)
            r = cat(Tag(EARLY, 0), cat(mid, cat(Tag(LATE, 1), rest)))
            bodies.add(r)
            for pos, c in enumerate("abcab"):
                for e in (r, mid, cat(mid, rest)):
                    assert derive(e, ord(c), pos, memo=memo) == derive(e, ord(c), pos)
        assert len(memo) > 100
        for node, cp, pos in memo:
            assert not isinstance(node, (Sym, Tag, Write, Empty, Eps)), node
            assert memo[node, cp, pos] == derive(node, cp, pos)
        assert any(node in bodies for node, _, _ in memo)
        assert any(has_memory(node) and node not in bodies for node, _, _ in memo)


class TestDerivativeClasses:
    def test_examples(self):
        part = derivative_classes(EPSILON, ABC)
        assert [sorted(map(chr, b.codepoints())) for b in part.blocks] == [
            ["a", "b", "c"]
        ]
        part = derivative_classes(sym(from_chars("ab")), ABC)
        blocks = {tuple(sorted(map(chr, b.codepoints()))) for b in part.blocks}
        assert blocks == {("a", "b"), ("c",)}
        r, _ = parse("ab*")
        part = derivative_classes(r, ABC)
        blocks = {tuple(sorted(map(chr, b.codepoints()))) for b in part.blocks}
        assert blocks == {("a",), ("b", "c")}

    def test_partition_covers_working_alphabet(self):
        rnd = random.Random(13)
        for _ in range(100):
            r = rand_expr(rnd, 4)
            part = derivative_classes(r, ABC)
            assert is_partition_of(part, ABC.working)

    def test_anchored_alphabet_three_way_split(self):
        atom = sym(single(ord("a")), transparent=True)
        alpha = Alphabet(base=from_chars("ab"), with_anchors=True)
        part = derivative_classes(atom, alpha)
        kinds = set()
        for b in part.blocks:
            if ord("a") in b:
                kinds.add("self")
            elif not b.intersect(ANCHORS).is_empty():
                kinds.add("anchors")
            else:
                kinds.add("dead")
        assert kinds == {"self", "anchors", "dead"}

    def test_meet_is_the_pairwise_intersection(self):
        # The sweep must give exactly the blocks, in the order, of
        # intersecting every block of one side with every block of the other.
        def pairwise(a, b):
            return tuple(z for x in a for y in b for z in [x.intersect(y)]
                         if not z.is_empty())

        def children(x):
            if isinstance(x, Cat):
                return (x.head, x.tail)
            if isinstance(x, (Alt, Inter)):
                return x.terms
            if isinstance(x, (Star, Not)):
                return (x.body,)
            return ()

        rnd = random.Random(29)
        alphabets = (Alphabet(), Alphabet(from_chars("ab"), with_anchors=True), ABC)
        meets = 0
        for k in range(120):
            gen = rand_pattern if k % 2 else rand_tagged_pattern
            r, _ = parse(gen(rnd, rnd.randint(1, 4), [3]))
            for alphabet in alphabets:
                assert is_partition_of(derivative_classes(r, alphabet), alphabet.working)
            work = [r]
            while work:
                x = work.pop()
                work += children(x)
                if isinstance(x, (Cat, Alt, Inter)):
                    acc = (FULL,)
                    for y in children(x):
                        b = _dca(y)
                        got = _meet(acc, b)
                        assert got == pairwise(acc, b), show(x)
                        meets += len(acc) > 1 and len(b) > 1  # both sides split
                        acc = got
        assert meets > 200

    def test_soundness_identical_derivatives_per_block(self):
        rnd = random.Random(23)
        for _ in range(150):
            r = rand_expr(rnd, 4)
            part = derivative_classes(r, ABC)
            for block in part.blocks:
                ds = {derive(r, cp) for cp in block.codepoints()}
                assert len(ds) == 1, show(r)


    def test_tagged_state_meets_its_bodies(self):
        # A tagged state's partition refines every body's: each block
        # gives every body one derivative.
        rnd = random.Random(41)
        for _ in range(100):
            state = tuple(rand_expr(rnd, 3) for _ in range(rnd.randint(0, 3)))
            part = derivative_classes(state, ABC)
            assert is_partition_of(part, ABC.working)
            for block in part.blocks:
                for body in state:
                    assert len({derive(body, cp) for cp in block.codepoints()}) == 1, show(body)


class TestMembershipTheorem:
    def test_derivative_membership_equals_oracle(self):
        rnd = random.Random(31)
        strings = strings_upto("ab", 5)
        for _ in range(60):
            r = rand_expr(rnd, 4, "ab")
            for s in strings:
                via_derivative = is_nullable(derive_string(r, s))
                assert via_derivative == member_naive(r, s), (show(r), s)

    def test_expansion_decomposition(self):
        # L ∩ Σ^{<=n} = nullify ∪ union over blocks of {a}·derive(r, a)
        rnd = random.Random(37)
        for _ in range(40):
            r = rand_expr(rnd, 3)
            part = derivative_classes(r, ABC)
            for s in strings_upto("abc", 4):
                direct = member_naive(r, s)
                if s == "":
                    assert direct == bool(nullify(r))
                else:
                    assert sum(ord(s[0]) in b for b in part.blocks) == 1
                    decomposed = member_naive(derive(r, ord(s[0])), s[1:])
                    assert direct == decomposed, show(r)

    def test_finiteness_of_derivatives(self):
        rnd = random.Random(41)
        for _ in range(60):
            r = rand_expr(rnd, 4)
            seen = {r}
            frontier = [r]
            while frontier:
                e = frontier.pop()
                for block in derivative_classes(e, ABC).blocks:
                    d = derive(e, block.pick())
                    if d not in seen:
                        seen.add(d)
                        frontier.append(d)
                assert len(seen) < 4000, show(r)
