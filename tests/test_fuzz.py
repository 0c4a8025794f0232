"""Randomized whole-pipeline agreement between the two engines."""

import random

from drex.anchors import inject_anchors
from drex.automaton import (
    StateLimitError,
    TaggedDfa,
    dfa_match,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from drex.charset import Alphabet, alphabet_from_chars
from drex.engine import match_full, match_lazy
from drex.semantics import nu_ways
from drex.submatch import HIGHER, apply_ops, apply_writes, bank_compare
from drex.syntax import POLICIES, ParseError, SyntaxOptions, parse

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


def _ranked_on_the_run(m, state, p, store):
    """The run-time rule compiled acceptance replaced: rank every owned
    nullable way of the state on the run's own store at position ``p``."""
    depth = m.depths[state]
    best = None
    for owner, writes in nu_ways(m.states[state], depth):
        if owner is None:
            continue
        cells = apply_writes(store[owner], [(slot, p + v - depth) for slot, v in writes])
        if best is None or bank_compare(cells, best[1], m.tags) == HIGHER:
            best = (owner, cells)
    return best


def _check_acceptance(m, text) -> int:
    """Step ``m`` over ``text``; at each accepting position compare the
    compiled bank and cells with the run-time ranking.  Returns the
    number of positions compared."""
    symbols = inject_anchors(text).symbols if m.anchored else [ord(c) for c in text]
    n_slots = m.tags.num_tags
    store = {}
    apply_ops(store, m.initial_ops, 0, n_slots)
    state = compared = 0
    for p in range(len(symbols) + 1):
        info = m.accepting.get(state)
        if info is not None:
            compiled = apply_writes(store[info.bank],
                                    [(op.slot, p + op.offset) for op in info.ops])
            assert _ranked_on_the_run(m, state, p, store) == (info.bank, compiled), (state, p)
            compared += 1
        if p == len(symbols) or state == m.dead:
            break
        state, ops = m.step(state, symbols[p])
        apply_ops(store, ops, p + 1, n_slots)
    return compared


def test_compiled_acceptance_equals_run_time_ranking():
    # A state's store signature fixes every bank comparison, so the way
    # ranked best when the state is created stays best on every run that
    # reaches it.  One on-demand machine serves all texts, so states are
    # reached at other positions and with other stores than at creation.
    rnd = random.Random(2019)
    alphabets = [(Alphabet(), strings_upto("ab", 3) + ["a b", "c", "b\na"]),
                 (alphabet_from_chars("ab"), strings_upto("ab", 4))]
    compared = 0
    for gen in (rand_pattern, rand_tagged_pattern):
        for policy in POLICIES:
            for alphabet, texts in alphabets:
                for _ in range(40):
                    pattern = gen(rnd, rnd.randint(1, 3), [2])
                    try:
                        r, t = parse(pattern, SyntaxOptions(policy=policy))
                    except ParseError:
                        continue
                    if not t.num_tags:
                        continue
                    m = TaggedDfa(r, t, policy, alphabet, state_limit=1000)
                    try:
                        for text in texts:
                            compared += _check_acceptance(m, text)
                    except StateLimitError:
                        pass
    assert compared > 5000
