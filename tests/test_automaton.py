"""DFA construction, tagged machines, Arden elimination, minimality."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from drex import anchors, automaton
from drex.automaton import (
    Dfa,
    StateLimitError,
    TaggedDfa,
    check_minimal,
    dfa_match,
    dfa_to_regex,
    export_dot,
    export_json,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from drex.charset import Alphabet, alphabet_from_chars, from_chars, single
from drex.engine import match_full, match_lazy
from drex.syntax import EMPTY, EPSILON, SyntaxOptions, TagTable, parse, show, star, sym

from helpers import assert_reads_defined, rand_expr
from oracle import language_upto

ABC = alphabet_from_chars("abc")
AB = alphabet_from_chars("ab")


class CountingText(str):
    """A text that counts the characters its latest iteration handed out."""

    def __iter__(self):
        self.taken = 0
        for c in str.__iter__(self):
            self.taken += 1
            yield c


def table_of(m: Dfa):
    out = {}
    for i, row in enumerate(m.transitions):
        for block, j in row:
            for cp in block.codepoints():
                out[(i, chr(cp))] = j
    return out


class TestMakeDfa:
    def test_ab_star_shape(self):
        r, _ = parse("ab*")
        m = make_dfa(r, ABC)
        assert m.n_states == 3
        t = table_of(m)
        q0, q1 = 0, t[(0, "a")]
        sink = t[(0, "b")]
        assert m.accepting == {q1}
        assert t[(0, "c")] == sink
        assert t[(q1, "b")] == q1
        assert t[(q1, "a")] == sink and t[(q1, "c")] == sink
        assert t[(sink, "a")] == t[(sink, "b")] == t[(sink, "c")] == sink

    def test_similarity_construction_not_minimal(self):
        r, _ = parse("(?:a+ab+b)*")
        m = make_dfa(r, ABC)
        assert m.n_states == 3
        assert len(m.accepting) == 2
        pairs = check_minimal(m)
        assert pairs == [tuple(sorted(m.accepting))]

    def test_empty_language(self):
        m = make_dfa(EMPTY, ABC)
        assert m.n_states == 1
        assert not m.accepting

    def test_state_limit(self):
        r, _ = parse("(?:a+b)*a(?:a+b)(?:a+b)(?:a+b)")
        with pytest.raises(StateLimitError) as e:
            make_dfa(r, AB, state_limit=4)
        assert e.value.bound == 4
        # The start state counts too: a bound below 1 admits no machine.
        empty, _ = parse("∅")
        assert make_dfa(empty, AB, state_limit=1).n_states == 1
        for bound in (0, -3):
            with pytest.raises(StateLimitError):
                make_dfa(empty, AB, state_limit=bound)

    def test_anchored_alphabet_rejected(self):
        # A plain DFA reads the text as it is; anchors need the tagged machine.
        r, _ = parse("^a")
        with pytest.raises(ValueError, match="unanchored"):
            make_dfa(r, Alphabet())
        assert make_tagged_dfa(r, TagTable()).accepting

    def test_exponential_witness(self):
        for mm in (2, 3, 4):
            pat = "(?:a+b)*a" + "(?:a+b)" * (mm - 1)
            r, _ = parse(pat)
            m = make_dfa(r, AB)
            assert m.n_states >= 2 ** mm


class TestDfaMatch:
    def test_examples(self):
        r, _ = parse("ab*")
        m = make_dfa(r, ABC)
        assert dfa_match(m, "abb")
        assert not dfa_match(m, "ba")

    def test_symbol_outside_alphabet(self):
        r, _ = parse("ab*")
        m = make_dfa(r, ABC)
        with pytest.raises(ValueError):
            dfa_match(m, "axb")

    def test_sequence_of_code_points(self):
        r, _ = parse("ab*")
        m = make_dfa(r, ABC)
        for s in ("", "a", "abb", "ba", "abc"):
            assert dfa_match(m, [ord(c) for c in s]) == dfa_match(m, s), s
            assert dfa_match(m, iter(map(ord, s))) == dfa_match(m, s), s
        for foreign in (0x78, 0xE9):
            with pytest.raises(ValueError, match=f"{foreign:#x} outside the working alphabet"):
                dfa_match(m, [ord("a"), foreign])
        # A one-shot iterable is read once: the error still names its symbol.
        with pytest.raises(ValueError, match="0x110000 outside the working alphabet"):
            dfa_match(make_dfa(parse("a*")[0], AB), iter([97, 0x110000, 97]))
        # Every code point is in this alphabet; a negative int is none.
        anything = make_dfa(parse(".*")[0])
        assert dfa_match(anything, [0, 0x7F, 0xE9, 0x10FFFF])
        with pytest.raises(ValueError, match="-0x1 outside the working alphabet"):
            dfa_match(anything, [0x7F, -1])

    def test_both_loops_reject_a_foreign_symbol_alike(self):
        # The ASCII list and the bisect path of the lookup fail the same
        # way in the plain and the tagged loop.
        r, t = parse("(a*)b")
        loops = [(make_dfa(r, AB), dfa_match),
                 (make_tagged_dfa(r, t, alphabet=AB), tagged_dfa_match),
                 (TaggedDfa(r, t, alphabet=AB), tagged_dfa_match)]
        for text, cp in (("axb", 0x78), ("aéb", 0xE9), ("a\U0010ffff", 0x10FFFF)):
            errors = set()
            for m, run in loops:
                with pytest.raises(ValueError) as err:
                    run(m, text)
                errors.add(str(err.value))
            assert errors == {f"symbol {cp:#x} outside the working alphabet"}, text

    def test_no_loop_reads_past_the_empty_state(self):
        # Every run stops in ∅, so a foreign symbol after it is never read.
        r, t = parse("(a*)b")
        assert not dfa_match(make_dfa(r, AB), "bbx")
        assert not dfa_match(make_dfa(r, AB), [ord("b"), ord("b"), 0x78])
        for m in (make_tagged_dfa(r, t, alphabet=AB), TaggedDfa(r, t, alphabet=AB)):
            assert tagged_dfa_match(m, "bbx").groups == ((0, 1), (0, 0))
        assert not dfa_match(make_dfa(parse("ab*")[0], ABC), "bx")
        # Start states that are ∅ or reach it on the first symbol: ∅
        # loops on every symbol, but it joins no fast set, so no run
        # skips through it to the foreign x.
        for pattern in ("∅", "a&b"):
            r, t = parse(pattern)
            plain, text = make_dfa(r, AB), CountingText("aax")
            assert not dfa_match(plain, text) and text.taken < 3, pattern
            for m in (plain.machine, make_tagged_dfa(r, t, alphabet=AB),
                      TaggedDfa(r, t, alphabet=AB)):
                text = CountingText("aax")
                assert not tagged_dfa_match(m, text).matched and text.taken < 3, pattern
                assert not any(fast for (j, _), fast in m.fast.items() if j == m.dead), pattern

    def test_hand_built_table_cannot_run(self):
        # A Dfa built by hand has no machine: both ways to run it say so,
        # and the table-only functions still read it.
        m = TestDfaToRegex().ch4_machine()
        with pytest.raises(ValueError, match="only a Dfa from make_dfa can run"):
            m.step(0, ord("a"))
        for text in ("ab", [ord("a")]):
            with pytest.raises(ValueError, match="only a Dfa from make_dfa can run"):
                dfa_match(m, text)
        assert check_minimal(m) == []
        assert json.loads(export_json(m))["accepting"] == [0]
        assert export_dot(m).startswith("digraph")

    def test_agreement_with_lazy(self):
        rnd = random.Random(15)
        for _ in range(60):
            r = rand_expr(rnd, 4)
            m = make_dfa(r, ABC)
            for _ in range(40):
                s = "".join(rnd.choice("abc") for _ in range(rnd.randint(0, 6)))
                assert dfa_match(m, s) == match_lazy(r, s), show(r)


class TestTaggedDfa:
    def fig_machine(self):
        r, t = parse("(a*)(a*)a")
        return make_tagged_dfa(r, t, alphabet=AB), t

    def test_fig_shape_and_initial_ops(self):
        m, _ = self.fig_machine()
        assert m.n_states == 3
        assert m.initial_ops == ((1, None, ()), (1, 1, ((0, 0),)))
        accept = [info for info in m.accepting.values()]
        assert len(accept) == 1
        assert accept[0].bank is not None

    def test_fig_transition_ops_copy_and_stamp(self):
        m, _ = self.fig_machine()
        a_row = [e for e in m.transitions[0] if ord("a") in e[0]]
        (block, target, program) = a_row[0]
        copies = [(dst, src) for dst, src, _ in program if dst != src]
        stamps = [offset for _, _, writes in program for _, offset in writes]
        assert len(copies) == 2 and all(src == 1 for _, src in copies)
        assert set(stamps) == {-1}

    def test_fig_submatches(self):
        m, _ = self.fig_machine()
        assert tagged_dfa_match(m, "aa").groups == ((0, 2), (0, 1), (1, 1))
        assert tagged_dfa_match(m, "a").groups == ((0, 1), (0, 0), (0, 0))
        assert not tagged_dfa_match(m, "b").matched
        assert not tagged_dfa_match(m, "ba").matched

    def test_tag_free_equals_plain_dfa(self):
        # The second pattern has capture groups whose tags are not tracked.
        for pat, ab, n_states in (("(?:a+ab+b)*", ABC, None), ("(a*)(a*)a", AB, 3)):
            r, _ = parse(pat)
            plain = make_dfa(r, ab)
            tagged = make_tagged_dfa(r, TagTable(), alphabet=ab, state_limit=50)
            assert n_states is None or plain.n_states == n_states
            assert tagged.states == plain.states
            assert all(not ops for row in tagged.transitions for _, _, ops in row)
            assert [
                (block.bounds, j) for row in tagged.transitions for block, j, _ in row
            ] == [(block.bounds, j) for row in plain.transitions for block, j in row]
            assert set(tagged.accepting) == set(plain.accepting)

    def test_unknown_policy_is_refused(self, monkeypatch):
        # A policy string outside POLICIES would run as pre-order and be
        # exported as given; the machine refuses it with parse's error,
        # before it derives anything.
        def no_start(*args):
            raise AssertionError("the machine started")

        r, t = parse("(a*)")
        monkeypatch.setattr(automaton, "start", no_start)
        makers = {
            "match_full": lambda policy: match_full(r, t, "aa", policy),
            "make_tagged_dfa": lambda policy: make_tagged_dfa(r, t, policy),
            "TaggedDfa": lambda policy: TaggedDfa(r, t, policy),
        }
        for policy in ("bogus", "Posix", ""):
            with pytest.raises(ValueError) as want:
                parse("(a*)", SyntaxOptions(policy=policy))
            for name, make in makers.items():
                with pytest.raises(ValueError) as got:
                    make(policy)
                assert str(got.value) == str(want.value) == f"unknown policy {policy!r}", name

    def test_symbol_outside_alphabet(self):
        # A machine built in full and one built as the run reaches it
        # reject a foreign symbol alike.
        r, t = parse("(a*)b")
        built = make_tagged_dfa(r, t, alphabet=AB)
        live = TaggedDfa(r, t, alphabet=AB)
        for m in (built, live):
            with pytest.raises(ValueError, match="0x63 outside the working alphabet"):
                tagged_dfa_match(m, "acb")

    def test_on_demand_run_stops_at_empty(self):
        # A machine built as the run reaches it creates ∅ mid-run; the run
        # must stop there, having read as much text as on the built machine:
        # the first "c" leads to ∅.
        r, t = parse("(a)b")
        built = make_tagged_dfa(r, t)
        text = CountingText("c" * 1000)
        assert not tagged_dfa_match(built, text).matched
        assert text.taken == 1
        assert not match_full(r, t, text).matched
        assert text.taken == 1

    def test_run_builds_no_anchor_stream(self, monkeypatch):
        # The loop generates the markers itself; only the reference and
        # ``drex trace`` materialize the stream.
        def refuse(*_args):
            raise AssertionError("an anchor stream was built")

        monkeypatch.setattr(anchors, "AnchoredStream", refuse)
        r, t = parse("(\\<a*)\\> (b)$")
        want = ((0, 4), (0, 2), (3, 4))
        assert tagged_dfa_match(make_tagged_dfa(r, t), "aa b").groups == want
        assert match_full(r, t, "aa b").groups == want

    def test_built_machine_is_complete(self):
        # make_tagged_dfa takes every edge, so a run only reads the table.
        rnd = random.Random(23)
        for pat in ("(a*)(a*)a", "(a(b)*)*a*", "\\<(a+b)*\\>", "((?la+ε)(ab+b)*)*", "(a)b"):
            r, t = parse(pat)
            m = make_tagged_dfa(r, t)
            assert all(target is not None for row in m.transitions for _, target, _ in row)
            n_states = m.n_states
            edges = [[tuple(edge) for edge in row] for row in m.transitions]
            for _ in range(40):
                tagged_dfa_match(m, "".join(rnd.choice("ab c") for _ in range(rnd.randint(0, 8))))
            assert m.n_states == n_states, pat
            assert [[tuple(edge) for edge in row] for row in m.transitions] == edges, pat

    def test_memo_lives_and_dies_with_the_construction_tables(self):
        # Each machine starts with a memo of its own, which holds only what
        # state 0 put there (its class blocks, the class masks of its
        # nodes, and with tags its start's tag evaluations), whatever was
        # built before for the same pattern; build() releases it with the
        # tables it belongs to, and an on-demand machine keeps it.
        r, t = parse("(a+b)*a(a+b)(a+b)")
        for tags, alphabet in ((t, Alphabet()), (TagTable(), AB)):
            first = TaggedDfa(r, tags, alphabet=alphabet)
            memo = first._memo
            initial = dict(memo)
            rest = [k for k in initial if k != first.states[0]]
            assert first.states[0] in initial
            assert all(len(k) == 2 and k[1] in (0, None) for k in rest)
            tree = first.states[0][0] if tags.num_tags else first.states[0]
            assert (tree, None) in initial
            first.build()
            assert first._memo is None and len(memo) > len(initial)
            on_demand = TaggedDfa(r, tags, alphabet=alphabet)
            tagged_dfa_match(on_demand, "abab")
            assert len(on_demand._memo) > len(initial)
            fresh = TaggedDfa(r, tags, alphabet=alphabet)
            assert fresh._memo == initial and fresh._memo is not on_demand._memo
        assert make_dfa(r, AB).machine._memo is None
        assert make_tagged_dfa(r, t)._memo is None

    def test_a_built_machine_holds_no_memo(self):
        # build() releases the whole construction memo (derivatives, tag
        # evaluations, class blocks), whether the machine was run first
        # or not, and so do make_dfa and make_tagged_dfa.
        for pattern in ("(a*)(a*)a", "(a+b)*a(a+b)(a+b)", "(a)~(ab)&(a+b)*"):
            r, t = parse(pattern)
            for alphabet in (Alphabet(), AB):
                assert make_tagged_dfa(r, t, alphabet=alphabet)._memo is None
                on_demand = TaggedDfa(r, t, alphabet=alphabet)
                tagged_dfa_match(on_demand, "abab")
                assert on_demand._memo
                assert on_demand.build()._memo is None
            assert make_dfa(r, AB).machine._memo is None

    def test_each_class_partition_and_tag_evaluation_is_computed_once(self, monkeypatch):
        # A run computes the class blocks of each distinct state expression
        # once, though states that differ only in their store share one,
        # and evaluates each (node, position) once: the machine memo keeps
        # both, so dropping either fails these counts.
        from drex import automaton, submatch

        classes, evals = [], []
        real_classes, real_teval = automaton.TaggedDfa._classes, submatch._teval

        def counted_classes(self, e):
            classes.append(e)
            return real_classes(self, e)

        def counted_teval(r, pos, memo):
            evals.append((r, pos))
            return real_teval(r, pos, memo)

        monkeypatch.setattr(automaton.TaggedDfa, "_classes", counted_classes)
        monkeypatch.setattr(submatch, "_teval", counted_teval)
        kv = r"([a-z][a-z]*)=([0-9][0-9]*)(?:;([a-z][a-z]*)=([0-9][0-9]*))*"
        for pattern, text, n_states, n_exprs, n_evals in (
                ("(a*)(a*)a", "a" * 200, 4, 4, 25),
                (kv, "ab=12;c=3;def=45;g=6789;h=0", 18, 11, 39)):
            r, t = parse(pattern)
            classes.clear()
            evals.clear()
            assert match_full(r, t, text).matched
            assert len(classes) == len(set(classes)) == n_exprs, pattern
            assert len(evals) == len(set(evals)) == n_evals, pattern
            m = TaggedDfa(r, t)
            tagged_dfa_match(m, text)
            assert m.n_states == n_states and set(m.states) == set(classes), pattern

    def test_step_exports_and_loop_read_one_program(self):
        # A row entry holds (target, program, accept info, fast set): the
        # loop runs the edge's own program, ``step`` hands it out, and the
        # exports, read before and after the runs, render it.
        r, t = parse("(a*)(a*)a")
        built = make_tagged_dfa(r, t)
        exported = export_json(built), export_dot(built)
        for m in (built, TaggedDfa(r, t)):
            for text in ("", "a", "aab", "aaaba"):
                tagged_dfa_match(m, text)
            programs = set()  # ids: the machine holds every program
            for i, row in enumerate(m.transitions):
                for block, target, program in row:
                    if target is None:
                        continue
                    assert m.step(i, block.pick()) == (target, program)
                    programs.add(id(program))
            entries = [e for row in m.rows for e in row if e is not None]
            assert entries and all(len(e) == 4 for e in entries)
            assert all(id(e[1]) in programs for e in entries)
            assert any(e[1] for e in entries)
        assert (export_json(built), export_dot(built)) == exported

    def test_lazy_variant_same_graph_other_banks(self):
        r, t = parse("(?la*)(?la*)a")
        m = make_tagged_dfa(r, t, alphabet=AB)
        assert m.n_states == 3
        assert tagged_dfa_match(m, "aa").groups == ((0, 2), (0, 0), (0, 1))

    def test_equivalence_with_match_full(self):
        rnd = random.Random(99)
        pats = [
            "(a*)(a*)a", "(a(b)*)*a*", "((a+b)*)b", "(?la*)(a*)b*",
            "(a*)(b(a)*)*", "((?la+ε)(ab+b)*)*", "(~a)b",
        ]
        for policy in ("posix", "pre-order", "post-order"):
            for pat in pats:
                r, t = parse(pat, SyntaxOptions(policy=policy))
                m = make_tagged_dfa(r, t, policy=policy)
                for _ in range(60):
                    s = "".join(rnd.choice("ab") for _ in range(rnd.randint(0, 6)))
                    a = match_full(r, t, s, policy=policy)
                    b = tagged_dfa_match(m, s)
                    assert a == b, (policy, pat, s)

    def test_ops_never_read_undefined_banks(self):
        # static check: on every path from the start state, a step reads
        # a bank that is defined there, or opens one all unset; the
        # corpus is checked in test_fuzz.py
        for pat in ["(a*)(a*)a", "(a(b)*)*a*", "((a+b)*)b", "(a*)(b(a)*)*"]:
            r, t = parse(pat)
            assert_reads_defined(make_tagged_dfa(r, t))


class TestDfaToRegex:
    def ch4_machine(self):
        a, b, c = single(ord("a")), single(ord("b")), single(ord("c"))
        states = tuple(parse(p)[0] for p in ("ε", "a", "∅"))
        return Dfa(
            ABC,
            states,
            (
                ((a, 0), (b, 1), (c, 2)),
                ((a, 0), (b, 1), (c, 2)),
                ((a.union(b).union(c), 2),),
            ),
            frozenset({0}),
        )

    def test_worked_machine(self):
        r = dfa_to_regex(self.ch4_machine())
        want, _ = parse("(?:a+bb*a)*")
        assert language_upto(r, 8, "abc") == language_upto(want, 8, "abc")

    def test_all_symbol_self_loop(self):
        allcs = from_chars("abc")
        st = (parse("ε")[0],)
        m = Dfa(ABC, st, (((allcs, 0),),), frozenset({0}))
        r = dfa_to_regex(m)
        assert language_upto(r, 5, "abc") == language_upto(
            star(sym(allcs)), 5, "abc"
        )

    def test_round_trip_random(self):
        rnd = random.Random(8)
        for _ in range(40):
            r = rand_expr(rnd, 3)
            m = make_dfa(r, ABC)
            back = dfa_to_regex(m)
            assert language_upto(back, 7, "abc") == language_upto(r, 7, "abc"), show(r)


class TestCheckMinimal:
    def test_examples(self):
        r, _ = parse("ab*")
        assert check_minimal(make_dfa(r, ABC)) == []
        m = make_dfa(EMPTY, ABC)
        assert check_minimal(m) == []
        # A table built by hand has no machine to run: the check reads the table.
        assert check_minimal(TestDfaToRegex().ch4_machine()) == []

    def test_detects_equivalent_states(self):
        r, _ = parse("(?:a+ab+b)*")
        assert check_minimal(make_dfa(r, ABC)) == [(0, 1)]

    def test_a_missing_edge_is_named(self):
        # The check names the first state without an edge on some symbol,
        # and one such symbol, also where no row has an edge on it.
        a, eps = sym(single(97)), EPSILON
        for rows, message in [((((single(97), 1),), ()), "state 0 has no edge on b"),
                              ((((from_chars("ab"), 1),), ()), "state 1 has no edge on a"),
                              ((((single(97), 1),), ((single(97), 1),)), "state 0 has no edge on b")]:
            with pytest.raises(ValueError, match=message):
                check_minimal(Dfa(AB, [a, eps], rows, frozenset({1})))


class TestExports:
    def test_dot(self):
        r, _ = parse("ab*")
        dot = export_dot(make_dfa(r, ABC))
        assert dot.startswith("digraph")
        assert "doublecircle" in dot
        assert "q0 -> q1" in dot or "q0 -> q2" in dot

    def test_json_plain(self):
        r, _ = parse("ab*")
        doc = json.loads(export_json(make_dfa(r, ABC)))
        assert doc["initial"] == 0
        assert len(doc["states"]) == 3

    def test_json_tagged(self):
        r, t = parse("(a*)(a*)a")
        m = make_tagged_dfa(r, t, alphabet=AB)
        assert m.anchored is False and make_tagged_dfa(r, t).anchored is True
        assert TaggedDfa(r, t).anchored is True  # the default alphabet has anchors
        doc = json.loads(export_json(m))
        assert doc["bank_count"] == m.bank_count
        assert doc["tags"]["groups"] == [[0, 1], [2, 3]]
        assert any(tr["ops"] for tr in doc["transitions"])
        assert doc["initial_ops"] == [{"bank": 1, "from": None, "sets": []},
                                      {"bank": 1, "from": 1, "sets": [[0, 0]]}]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 17's done-when: a machine that was run and then built "
        "exports exactly as one that was only built; today a run numbers "
        "states in the order it takes edges (the CHANGES.md FOUND line on "
        "run-then-built exports)"))
    def test_run_then_built_exports_as_only_built(self):
        differ = []
        for pattern, text in (("(ab+ba)", "ba"), ("(a*)(b*)", "bb"), ("(a*)(b*)", "ab"),
                              ("x(a+b)*y", "xbby")):
            r, t = parse(pattern)
            run = TaggedDfa(r, t)
            tagged_dfa_match(run, text)
            if export_json(run.build()) != export_json(make_tagged_dfa(r, t)):
                differ.append((pattern, text))
        assert differ == []


_EXPORT_SCRIPT = """
from drex.automaton import export_json, make_dfa, make_tagged_dfa
from drex.charset import alphabet_from_chars
from drex.syntax import parse

r, t = parse("((a+b)*)(b(a)*)*&~(?:.*bb.*)")
print(export_json(make_tagged_dfa(r, t)))
print(export_json(make_dfa(r, alphabet_from_chars("ab"))))
"""


def test_json_independent_of_hash_seed():
    # Nothing in a machine's layout may follow the order of a hash table.
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", _EXPORT_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_a_run_holds_no_memory_per_character():
    # The loop records the markers it steps, not the characters, so a run
    # whose text has markers only at its ends holds no memory per character.
    r, t = parse("((?:a+b)*)")
    tagged = make_tagged_dfa(r, t)
    plain = make_dfa(parse("(a+b)*")[0], AB)
    text = "ab" * 100_000
    for run in (lambda: tagged_dfa_match(tagged, text).matched, lambda: dfa_match(plain, text)):
        tracemalloc.start()
        try:
            assert run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak
