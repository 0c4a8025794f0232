"""Lazy matching: recognition and full submatch extraction."""

import random
import time

from drex.engine import _canonical, match_full, match_lazy
from drex.syntax import (
    POLICY_POSIX,
    POLICY_POST_ORDER,
    POLICY_PRE_ORDER,
    SyntaxOptions,
    parse,
    show,
)

from helpers import canonical_reference, oracle_posix_result, rand_expr, strings_upto
from oracle import member_naive


class TestMatchLazy:
    def test_examples(self):
        r, _ = parse("ab*")
        assert match_lazy(r, "abb")
        assert not match_lazy(r, "")
        r, _ = parse("(?:a+bb*a)*")
        assert match_lazy(r, "ba")
        assert match_lazy(r, "")
        assert not match_lazy(r, "ab")

    def test_agreement_with_oracle(self):
        rnd = random.Random(61)
        for _ in range(80):
            r = rand_expr(rnd, 4, "ab")
            for s in strings_upto("ab", 5):
                assert match_lazy(r, s) == member_naive(r, s), (show(r), s)


class TestMatchFull:
    def test_posix_table_two_stars(self):
        r, t = parse("(a*)(a*)a")
        res = match_full(r, t, "aa")
        assert res.matched
        assert res.groups == ((0, 2), (0, 1), (1, 1))

    def test_posix_table_optional_groups(self):
        r, t = parse("(a+ε)((ab)+ε)")
        res = match_full(r, t, "ab")
        assert res.groups == ((0, 2), (0, 0), (0, 2), (0, 2))

    def test_posix_table_subpattern(self):
        r, t = parse("[ab]*(([bc])*)", SyntaxOptions(posix_subpatterns=True))
        res = match_full(r, t, "abbcc")
        assert res.groups[0] == (0, 5)
        assert res.groups[1:3] == ((3, 5), (4, 5))

    def test_greedy_vs_lazy(self):
        r, t = parse("(a*)(a*)a")
        assert match_full(r, t, "aa").groups[1:] == ((0, 1), (1, 1))
        r, t = parse("(?la*)(?la*)a")
        assert match_full(r, t, "aa").groups[1:] == ((0, 0), (0, 1))

    def test_policy_comparison_on_aaa(self):
        # the nested two-star pattern under each policy; group cells are
        # listed in closing order (inner first, inner second, outer)
        pattern = "(?l(?la*)(a*))a"
        expect = {
            POLICY_POSIX: ((0, 3), [(0, 0), (0, 2), (0, 2)]),
            POLICY_PRE_ORDER: ((0, 1), [(0, 0), (0, 0), (0, 0)]),
            POLICY_POST_ORDER: ((0, 3), [(0, 0), (0, 2), (0, 2)]),
        }
        for policy, (m0, closing_cells) in expect.items():
            r, t = parse(pattern, SyntaxOptions(policy=policy))
            res = match_full(r, t, "aaa", policy=policy)
            assert res.matched
            assert res.groups[0] == m0, policy
            outer, inner1, inner2 = res.groups[1], res.groups[2], res.groups[3]
            assert [inner1, inner2, outer] == closing_cells, policy

    def test_anchored_example(self):
        r, t = parse("[a1][a1]*\\<[a1]*")
        res = match_full(r, t, "1a")
        assert res.matched and res.groups[0] == (0, 2)

    def test_prefix_matching_and_consumed(self):
        r, t = parse("(a)b*")
        res = match_full(r, t, "abbc")
        assert res.matched
        assert res.groups[0] == (0, 3)
        assert res.groups[1] == (0, 1)

    def test_no_match(self):
        r, t = parse("(a)b")
        res = match_full(r, t, "ba")
        assert not res.matched
        assert res.groups == ()
        assert res.bank is None

    def test_empty_input_records_positions(self):
        r, t = parse("(a*)(b*)")
        res = match_full(r, t, "")
        assert res.matched
        assert res.groups == ((0, 0), (0, 0), (0, 0))

    def test_stream_offsets_mode(self):
        r, t = parse("(a)")
        res = match_full(r, t, "a", stream_offsets=True)
        # the opening tag fires before the anchor run is consumed; the
        # closing one lands after the symbol (stream position 4)
        assert res.groups[1] == (0, 4)
        assert match_full(r, t, "a").groups[1] == (0, 1)

    def test_json_shape(self):
        r, t = parse("(a)(b)*")
        doc = match_full(r, t, "a").to_dict()
        assert doc["matched"] is True
        assert doc["groups"][0] == {"start": 0, "end": 1}
        assert doc["groups"][2] is None

    def test_unmatched_group_null(self):
        r, t = parse("(a)+(b)")
        res = match_full(r, t, "b")
        assert res.groups[1] is None
        assert res.groups[2] == (0, 1)


class TestCanonicalStore:
    def test_agrees_with_the_reference(self):
        # Random stores under the contract of ``_canonical``: 0-4 banks
        # (numbered in any order) of 1-16 slots, each value in 0..p or
        # unset.  The keys come back in the store's order.
        rnd = random.Random(5)
        ranked = 0  # draws with some slot holding two distinct values below p
        for _ in range(20_000):
            p = rnd.randrange(7)
            values = [*range(p + 1), None]
            n = rnd.randint(1, 16)
            banks = rnd.sample(range(1, 9), rnd.randrange(5))
            store = {b: tuple(rnd.choices(values, k=n)) for b in banks}
            got = _canonical(store, p)
            assert got == canonical_reference(store, p), (store, p)
            assert list(got) == banks, (store, p)
            ranked += any(len(set(column) - {None, p}) > 1 for column in zip(*store.values()))
        assert ranked > 2_000


class TestOracleAgreement:
    def test_posix_result_matches_exhaustive_oracle(self):
        pats = [
            "(a)(b)", "(a*)(a*)a", "(a+ab)(b+ε)", "((a+b)*)b",
            "(a(b)*)", "((a)b*)", "(?la*)(a*)", "(a*)(b*)",
            # One live bank through the loop: whether a cell holds the
            # current position or an older one decides the groups.
            "b*(?:(a+ε)(a+ε)+a)",
        ]
        inputs = strings_upto("ab", 3)
        for pat in pats:
            r, t = parse(pat)
            for s in inputs:
                got = match_full(r, t, s)
                want = oracle_posix_result(r, t, s)
                if want is None:
                    assert not got.matched, (pat, s)
                else:
                    l, spans = want
                    assert got.matched and got.groups[0] == (0, l), (pat, s)
                    assert list(got.groups[1:]) == spans, (pat, s)


def test_linear_growth_smoke():
    # expression size stays bounded across the run and runtime grows
    # roughly linearly with the input (monotone-linear fit, not timing
    # guarantees)
    from drex.semantics import derive

    r, _ = parse("(?:a+bb*a)*")
    sizes = []
    expr = r
    s = "ba" * 400
    for c in s:
        expr = derive(expr, ord(c))
        n = len(show(expr))
        sizes.append(n)
    assert max(sizes) <= 10 * max(sizes[:10])

    def run(n):
        t0 = time.perf_counter()
        match_lazy(r, "ba" * n)
        return time.perf_counter() - t0

    run(50)  # warm caches
    t_small = min(run(200) for _ in range(3))
    t_big = min(run(1600) for _ in range(3))
    # 8x the input should cost clearly less than ~quadratic growth
    assert t_big < 64 * max(t_small, 1e-4)
