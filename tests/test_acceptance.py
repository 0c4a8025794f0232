"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in captured output on failure) and enforces the stated time budget.
"""

import itertools
import random
import time
from contextlib import contextmanager

from drex.automaton import (
    Dfa,
    dfa_match,
    dfa_to_regex,
    check_minimal,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from drex.charset import alphabet_from_chars, single
from drex.engine import match_full, match_lazy
from drex.semantics import derivative_classes, derive
from drex.submatch import POLICY_POSIX, POLICY_PRE_ORDER, POLICY_POST_ORDER, teval
from drex.syntax import SyntaxOptions, is_nullable, parse, show

from helpers import oracle_posix_result, rand_expr, rand_tagged, strings_upto
from oracle import language_upto

ABC = alphabet_from_chars("abc")
AB = alphabet_from_chars("ab")


@contextmanager
def criterion(number: int, title: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        print(f"criterion {number:2d}: FAIL  {title} (took {elapsed:.1f}s > {budget}s)")
        raise AssertionError(f"criterion {number} exceeded {budget}s: {elapsed:.1f}s")
    print(f"criterion {number:2d}: PASS  {title} ({elapsed:.2f}s)")


def test_criterion_1_ab_star_dfa_shape():
    with criterion(1, "ab* DFA has the exact three-state table", 1.0):
        r, _ = parse("ab*")
        m = make_dfa(r, ABC)
        assert m.n_states == 3
        table = {}
        for i, row in enumerate(m.transitions):
            for block, j in row:
                for cp in block.codepoints():
                    table[(i, chr(cp))] = j
        q0 = 0
        q1 = table[(q0, "a")]
        sink = table[(q0, "b")]
        assert {q0, q1, sink} == {0, 1, 2}
        assert m.accepting == {q1}
        assert table == {
            (q0, "a"): q1, (q0, "b"): sink, (q0, "c"): sink,
            (q1, "a"): sink, (q1, "b"): q1, (q1, "c"): sink,
            (sink, "a"): sink, (sink, "b"): sink, (sink, "c"): sink,
        }


def test_criterion_2_similarity_non_minimality():
    with criterion(2, "(a+ab+b)* builds 3 states with one mergeable pair", 1.0):
        r, _ = parse("(?:a+ab+b)*")
        m = make_dfa(r, ABC)
        assert m.n_states == 3
        assert len(m.accepting) == 2
        assert check_minimal(m) == [tuple(sorted(m.accepting))]


def test_criterion_3_arden_round_trip():
    with criterion(3, "state elimination solves the worked machine", 5.0):
        a, b, c = single(ord("a")), single(ord("b")), single(ord("c"))
        states = tuple(parse(p)[0] for p in ("ε", "a", "∅"))
        m = Dfa(
            ABC,
            states,
            (
                ((a, 0), (b, 1), (c, 2)),
                ((a, 0), (b, 1), (c, 2)),
                ((a.union(b).union(c), 2),),
            ),
            frozenset({0}),
        )
        solved = dfa_to_regex(m)
        want, _ = parse("(?:a+bb*a)*")
        assert language_upto(solved, 8, "abc") == language_upto(want, 8, "abc")


def test_criterion_4_anchor_grid():
    with criterion(4, "word-boundary grid over {a,1}", 1.0):
        r, t = parse("[a1][a1]*\\<[a1]*")
        expect = {"aaa": False, "111": False, "aa1": False, "1a": True}
        for text, want in expect.items():
            res = match_full(r, t, text)
            got = res.matched and res.groups[0] == (0, len(text))
            assert got == want, text


def _spans(res):
    return list(res.groups)


def test_criterion_5_posix_submatch_tables():
    with criterion(5, "three first-most-longest tables, both engines", 20.0):
        cases = [
            ("(a+ε)((ab)+ε)", "ab", SyntaxOptions(),
             [(0, 2), (0, 0), (0, 2), (0, 2)]),
            ("[ab]*(([bc])*)", "abbcc", SyntaxOptions(posix_subpatterns=True),
             [(0, 5), (3, 5), (4, 5)]),
            ("(a*)(a*)a", "aa", SyntaxOptions(),
             [(0, 2), (0, 1), (1, 1)]),
        ]
        for pattern, text, opts, want in cases:
            r, t = parse(pattern, opts)
            res = match_full(r, t, text)
            assert res.matched and _spans(res) == want, ("lazy", pattern)
            machine = make_tagged_dfa(r, t)
            res2 = tagged_dfa_match(machine, text)
            assert res2.matched and _spans(res2) == want, ("dfa", pattern)


def test_criterion_6_greedy_lazy_table():
    with criterion(6, "greedy vs lazy two-star table", 5.0):
        r, t = parse("(a*)(a*)a")
        assert match_full(r, t, "aa").groups[1:] == ((0, 1), (1, 1))
        assert tagged_dfa_match(make_tagged_dfa(r, t), "aa").groups[1:] == (
            (0, 1), (1, 1))
        r, t = parse("(?la*)(?la*)a")
        assert match_full(r, t, "aa").groups[1:] == ((0, 0), (0, 1))
        assert tagged_dfa_match(make_tagged_dfa(r, t), "aa").groups[1:] == (
            (0, 0), (0, 1))


def test_criterion_7_policy_table():
    with criterion(7, "three disambiguation policies, all twelve cells", 5.0):
        pattern = "(?l(?la*)(a*))a"
        # cells per policy: whole match, then the groups in closing order
        # (inner lazy star, inner greedy star, outer pair)
        table = {
            POLICY_POSIX: [(0, 3), (0, 0), (0, 2), (0, 2)],
            POLICY_PRE_ORDER: [(0, 1), (0, 0), (0, 0), (0, 0)],
            POLICY_POST_ORDER: [(0, 3), (0, 0), (0, 2), (0, 2)],
        }
        for policy, cells in table.items():
            r, t = parse(pattern, SyntaxOptions(policy=policy))
            res = match_full(r, t, "aaa", policy=policy)
            assert res.matched, policy
            outer, inner1, inner2 = res.groups[1:4]
            got = [res.groups[0], inner1, inner2, outer]
            assert got == cells, (policy, got)


def test_criterion_8_exponential_witness():
    with criterion(8, "(a+b)*a(a+b)^{m-1} needs at least 2^m states", 10.0):
        for m_par in (2, 3, 4):
            pat = "(?:a+b)*a" + "(?:a+b)" * (m_par - 1)
            r, _ = parse(pat)
            d = make_dfa(r, AB)
            assert d.n_states >= 2 ** m_par, (m_par, d.n_states)


def test_criterion_9_property_suite_oracle_equivalence():
    with criterion(9, "1000 random expressions agree with the oracle", 60.0):
        rnd = random.Random(20240809)
        strings = strings_upto("abc", 6)
        checked = 0
        for _ in range(1000):
            r = rand_expr(rnd, rnd.randint(1, 5))
            members = language_upto(r, 6, "abc")
            m = make_dfa(r, ABC)
            memo = {}

            def step(e, cp):
                key = (e, cp)
                hit = memo.get(key)
                if hit is None:
                    memo[key] = hit = derive(e, cp)
                return hit

            for s in strings:
                e = r
                for ch in s:
                    e = step(e, ord(ch))
                lazy = is_nullable(e)
                via_dfa = dfa_match(m, s)
                via_oracle = tuple(ord(c) for c in s) in members
                assert lazy == via_dfa == via_oracle, (show(r), s)
                checked += 1
        assert checked == 1000 * len(strings)


def test_criterion_10_teval_laws_and_dca_soundness():
    with criterion(10, "teval idempotence/preservation + dca soundness", 60.0):
        rnd = random.Random(97)
        for _ in range(500):
            r = rand_tagged(rnd, rnd.randint(2, 5), list(range(6)))
            p = rnd.randint(0, 3)
            once = teval(r, p)
            twice = teval(once, p)
            assert once == twice, show(r)
            assert language_upto(r, 5, "abc") == language_upto(once, 5, "abc"), show(r)
            for block in derivative_classes(r, ABC).blocks:
                cps = list(block.codepoints())
                ds = {derive(r, cp, 1) for cp in cps[:4]}
                assert len(ds) == 1, show(r)


def test_criterion_11_submatch_oracle():
    with criterion(11, "engine first-most-longest equals the bank maximum", 120.0):
        bodies = ["a", "b", "ab", "a*", "b*", "(?:a+ε)", "(?:a+b)",
                  "(?:ab)*", "a*b"]
        shapes = ["({x})({y})", "({x}({y}))", "({x}){y}", "{x}({y})",
                  "({x})*({y})", "(?l{x})({y})", "({x}(?l{y}))"]
        starrable = {"a", "b", "ab", "(?:a+b)"}
        patterns = set()
        for x, y in itertools.product(bodies, repeat=2):
            for sh in shapes:
                if "*" in sh and x not in starrable:
                    continue
                patterns.add(sh.format(x=x, y=y))
        inputs = strings_upto("ab", 3)
        checked = 0
        for pattern in sorted(patterns):
            r, t = parse(pattern)
            for s in inputs:
                got = match_full(r, t, s)
                want = oracle_posix_result(r, t, s)
                if want is None:
                    assert not got.matched, (pattern, s)
                else:
                    length, spans = want
                    assert got.matched, (pattern, s)
                    assert got.groups[0] == (0, length), (pattern, s)
                    assert list(got.groups[1:]) == spans, (pattern, s)
                checked += 1
        assert checked > 5000
