"""DFA construction, tagged machines, Arden elimination, minimality."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from drex import anchors
from drex.automaton import (
    AcceptInfo,
    CopyBank,
    Dfa,
    InitBank,
    SetSlot,
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
from drex.syntax import EMPTY, SyntaxOptions, TagTable, parse, show, star, sym

from helpers import rand_expr, strings_upto
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
        for foreign in (0x78, 0xE9):
            with pytest.raises(ValueError, match=f"{foreign:#x} outside the working alphabet"):
                dfa_match(m, [ord("a"), foreign])
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
        assert m.initial_ops == (InitBank(1), SetSlot(1, 0, 0))
        accept = [info for info in m.accepting.values()]
        assert len(accept) == 1
        assert accept[0].bank is not None

    def test_fig_transition_ops_copy_and_stamp(self):
        m, _ = self.fig_machine()
        a_row = [e for e in m.transitions[0] if ord("a") in e[0]]
        (block, target, ops) = a_row[0]
        copies = [op for op in ops if isinstance(op, CopyBank)]
        stamps = [op for op in ops if isinstance(op, SetSlot)]
        assert len(copies) == 2 and all(c.src == 1 for c in copies)
        assert {op.offset for op in stamps} == {-1}

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
        # static check: on every path from the start state, a bank is
        # copied or initialized before it is read
        pats = ["(a*)(a*)a", "(a(b)*)*a*", "((a+b)*)b", "(a*)(b(a)*)*"]
        for pat in pats:
            r, t = parse(pat)
            m = make_tagged_dfa(r, t)
            defined0 = set()
            for op in m.initial_ops:
                if isinstance(op, InitBank):
                    defined0.add(op.bank)
                elif isinstance(op, CopyBank):
                    assert op.src in defined0
                    defined0.add(op.dst)
                else:
                    assert op.bank in defined0
            live = {0: frozenset(defined0)}
            work = [0]
            while work:
                i = work.pop()
                for _, j, ops in m.transitions[i]:
                    defined = set(live[i])
                    for op in ops:
                        if isinstance(op, InitBank):
                            defined.add(op.bank)
                        elif isinstance(op, CopyBank):
                            assert op.src in defined, (pat, i, j, ops)
                            defined.add(op.dst)
                        else:
                            assert op.bank in defined, (pat, i, j, ops)
                    keep = frozenset(defined)
                    if j not in live:
                        live[j] = keep
                        work.append(j)
                    else:
                        merged = live[j] & keep
                        if merged != live[j]:
                            live[j] = merged
                            work.append(j)
                info = m.accepting.get(i)
                if info is not None and info.bank is not None:
                    assert info.bank in live[i]


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

    def test_detects_equivalent_states(self):
        r, _ = parse("(?:a+ab+b)*")
        assert check_minimal(make_dfa(r, ABC)) == [(0, 1)]


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
        assert doc["initial_ops"][0] == {"op": "init", "bank": 1}


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
