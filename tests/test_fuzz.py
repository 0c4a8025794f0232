"""Randomized whole-pipeline agreement between the two engines."""

import random

from drex.automaton import StateLimitError, dfa_match, make_dfa, make_tagged_dfa, tagged_dfa_match
from drex.charset import alphabet_from_chars
from drex.engine import match_full, match_lazy
from drex.syntax import ParseError, SyntaxOptions, parse

from helpers import rand_pattern, rand_tagged_pattern, strings_upto
from oracle import member_naive


def test_random_patterns_lazy_vs_compiled():
    rnd = random.Random(424242)
    tested = 0
    for _ in range(150):
        pattern = rand_pattern(rnd, rnd.randint(1, 4), [3])
        policy = rnd.choice(("posix", "pre-order", "post-order"))
        try:
            r, t = parse(pattern, SyntaxOptions(policy=policy))
        except ParseError:
            continue
        if t.num_tags > 8:
            continue
        try:
            m = make_tagged_dfa(r, t, policy=policy, state_limit=3000)
        except StateLimitError:
            continue
        tested += 1
        for _ in range(15):
            s = "".join(rnd.choice("ab c") for _ in range(rnd.randint(0, 6)))
            a = match_full(r, t, s, policy=policy)
            b = tagged_dfa_match(m, s)
            assert a.matched == b.matched, (policy, pattern, s)
            assert a.groups == b.groups, (policy, pattern, s)
    assert tested > 100


def test_verdict_grid_three_recognizers():
    # Plain derivatives, the built DFA and the structural oracle share no
    # matching code, so each checks the other two on the same verdicts.
    rnd = random.Random(20190731)
    ab = alphabet_from_chars("ab")
    inputs = strings_upto("ab", 4)
    tested = 0
    while tested < 60:
        pattern = rand_pattern(rnd, rnd.randint(1, 4), [3])
        try:
            r, _ = parse(pattern)
            m = make_dfa(r, ab, state_limit=200)
        except (ParseError, StateLimitError):
            continue
        tested += 1
        for s in inputs:
            want = member_naive(r, s)
            assert match_lazy(r, s) == want, (pattern, s)
            assert dfa_match(m, s) == want, (pattern, s)


def test_tagged_complement_machines_stay_finite():
    # positions recorded inside a complement must not leak into state
    # identity, or these constructions would grow one state per symbol
    for pattern in ["~(?:(?:((?:$+b)))*)", "~(?:$ab)(^)~(?:((?:\\>)*))",
                    "(~(ab))*", "~((a)*)b"]:
        r, t = parse(pattern)
        m = make_tagged_dfa(r, t, state_limit=500)
        assert m.n_states < 200, pattern
        res = tagged_dfa_match(m, "ab")
        assert res.matched == match_full(r, t, "ab").matched


def test_long_literal_pattern():
    r, t = parse("a" * 2000)
    assert match_lazy(r, "a" * 2000)
    assert not match_lazy(r, "a" * 1999)
    res = match_full(r, t, "a" * 2000)
    assert res.matched and res.groups[0] == (0, 2000)


def _oracle_policy(r, t, s, policy):
    from oracle import enumerate_matches
    from drex.submatch import HIGHER, bank_compare

    best = None
    for l in range(0, len(s) + 1):
        banks = enumerate_matches(r, t, s[:l])
        if not banks:
            continue
        top = None
        for b in banks:
            if top is None or bank_compare(b, top, t) == HIGHER:
                top = b
        if best is None or policy == "posix":
            best = (l, top)
        elif bank_compare(top, best[1], t) == HIGHER:
            best = (l, top)
    if best is None:
        return None
    l, bank = best
    spans = [
        None if bank[o] is None or bank[c] is None else (bank[o], bank[c])
        for o, c in t.group_pairs
    ]
    return l, spans


def test_random_tagged_patterns_vs_exhaustive_oracle():
    import itertools

    rnd = random.Random(31337)
    inputs = [""] + ["".join(c) for n in (1, 2, 3)
                     for c in itertools.product("ab", repeat=n)]
    tested = 0
    for _ in range(250):
        pattern = rand_tagged_pattern(rnd, rnd.randint(1, 3), [2])
        policy = rnd.choice(("posix", "pre-order", "post-order"))
        if "(" not in pattern:
            continue
        try:
            r, t = parse(pattern, SyntaxOptions(policy=policy))
        except ParseError:
            continue
        if not (0 < t.num_tags <= 4):
            continue
        tested += 1
        for s in inputs:
            got = match_full(r, t, s, policy=policy)
            want = _oracle_policy(r, t, s, policy)
            if want is None:
                assert not got.matched, (policy, pattern, s)
            else:
                l, spans = want
                assert got.matched, (policy, pattern, s)
                assert got.groups[0] == (0, l), (policy, pattern, s)
                assert list(got.groups[1:]) == spans, (policy, pattern, s)
    assert tested > 80
