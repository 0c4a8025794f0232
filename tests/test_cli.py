"""Command-line front end: verdicts, JSON, DOT, trace, grep."""

import io
import json

import pytest

from drex.anchors import inject_anchors
from drex.automaton import TaggedDfa
from drex.charset import single
from drex.cli import run
from drex.engine import match_lazy
from drex.syntax import SyntaxOptions, parse, show_class


def call(argv, stdin=None):
    out = io.StringIO()
    if stdin is not None:
        import sys

        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = run(argv, out)
        finally:
            sys.stdin = old
    else:
        code = run(argv, out)
    return code, out.getvalue()


class TestMatch:
    def test_match_exit_codes(self):
        code, out = call(["match", "ab*", "abb"])
        assert code == 0 and out.strip() == "match"
        code, out = call(["match", "ab*", "ba"])
        assert code == 1 and out.strip() == "no match"

    def test_match_dfa_engine_agrees(self):
        patterns = ["ab*", "(?:a+b)*a", "(a*)(a*)a", "~a", "[ab]&[bc]b*",
                    "^ab$", "(?:a+bb*a)*"]
        texts = ["", "a", "b", "ab", "ba", "abb", "bab", "aab"]
        for pattern in patterns:
            for text in texts:
                lazy = call(["match", pattern, text, "--engine", "lazy"])[0]
                dfa = call(["match", pattern, text, "--engine", "dfa"])[0]
                trace = call(["trace", pattern, text])[0]
                assert lazy == dfa == trace, (pattern, text)

    def test_verdict_independent_of_policy(self):
        # The policy ranks spans; whether the whole text matches is the
        # language's verdict, which ``trace`` and ``match_lazy`` give too.
        for pattern in ("a*", "(a)*", "(a)(b*)"):
            for policy in ("posix", "pre-order", "post-order"):
                r, _ = parse(pattern, SyntaxOptions(policy=policy))
                for text in ("", "a", "aaa", "ab", "abb", "ba"):
                    args = [pattern, text, "--policy", policy]
                    want = call(["trace", *args])[0]
                    assert want == (0 if match_lazy(r, text) else 1), (pattern, text)
                    for engine in ("lazy", "dfa"):
                        got = call(["match", *args, "--engine", engine])[0]
                        assert got == want, (pattern, policy, text, engine)

    def test_show_trace_steps_the_matching_machine(self, monkeypatch):
        # The trace lines come first, then the result, on either engine;
        # the built --ascii machine traces like the one ``trace`` builds.
        trace = call(["trace", "(a*)(b)", "aab"])[1]
        code, out = call(["match", "(a*)(b)", "aab", "--show-trace"])
        assert code == 0 and out == trace + "match\n"
        code, out = call(["submatch", "(a*)(b)", "aab", "--show-trace", "--engine", "dfa",
                          "--ascii", "--policy", "pre-order"])
        lines = out.splitlines()
        assert code == 0 and lines[:-1] == trace.splitlines()
        assert json.loads(lines[-1])["groups"][1] == {"start": 0, "end": 2}
        # The trace prints from the run that makes the result: no second
        # walk over an anchor stream, no stepping outside the matching loop.
        forms = (["trace", "(a*)(b)", "aab"], ["match", "(a*)(b)", "aab", "--show-trace"],
                 ["submatch", "(a*)(b)", "aab", "--show-trace", "--engine", "dfa"])
        want = [call(argv) for argv in forms]

        def refuse(*_):
            raise AssertionError("stepped outside the matching loop")

        monkeypatch.setattr(TaggedDfa, "step", refuse)
        monkeypatch.setattr("drex.cli.inject_anchors", refuse)
        assert [call(argv) for argv in forms] == want

    def test_file_input(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("abb", encoding="utf-8")
        assert call(["match", "ab*", "--file", str(path)]) == (0, "match\n")
        assert call(["match", "ab", "--file", str(path)]) == (1, "no match\n")
        assert call(["match", "ab", "--file", str(tmp_path / "missing")])[0] == 2

    def test_ascii_rejects_wider_input_on_both_engines(self):
        for engine in ("lazy", "dfa"):
            code, out = call(["match", "--ascii", "~a", "é", "--engine", engine])
            assert code == 2 and out == "", engine
            code, _ = call(["submatch", "--ascii", "(a)", "é", "--engine", engine])
            assert code == 2, engine
        assert call(["match", "--ascii", "~a", "e"])[0] == 0

    def test_recursion_overflow_exit_2(self):
        literal = "a" * 30_000
        code, out = call(["match", literal, literal])
        assert code == 2 and out == ""

    def test_parse_error_exit_2(self):
        code, _ = call(["match", "(a", "x"])
        assert code == 2

    def test_state_bound_error(self):
        # Every subcommand and both engines build under the bound.
        bounded = ["(?:a+b)*a(?:a+b)(?:a+b)", "aab", "--state-bound", "3"]
        for argv in (["match", *bounded, "--engine", "dfa"], ["match", *bounded],
                     ["submatch", *bounded], ["trace", *bounded], ["grep", *bounded]):
            code, _ = call(argv)
            assert code == 2, argv

    def test_stdin_input(self):
        code, _ = call(["match", "ab"], stdin="ab")
        assert code == 0


class TestSubmatch:
    def test_posix_groups_json(self):
        code, out = call(["submatch", "--policy", "posix", "(a*)(a*)a", "aa"])
        assert code == 0
        doc = json.loads(out)
        assert doc["matched"] is True
        assert doc["groups"] == [
            {"start": 0, "end": 2},
            {"start": 0, "end": 1},
            {"start": 1, "end": 1},
        ]

    def test_unmatched_group_is_null(self):
        _, out = call(["submatch", "(a)+(b)", "b"])
        doc = json.loads(out)
        assert doc["groups"][1] is None

    def test_no_match_exit_1(self):
        code, out = call(["submatch", "(a)", "b"])
        assert code == 1
        assert json.loads(out)["matched"] is False

    def test_dfa_engine_same_result(self):
        a = call(["submatch", "(a*)(b*)", "aab"])[1]
        b = call(["submatch", "(a*)(b*)", "aab", "--engine", "dfa"])[1]
        assert json.loads(a) == json.loads(b)

    def test_stream_offsets_flag(self):
        plain = json.loads(call(["submatch", "(a)", "a"])[1])
        stream = json.loads(call(["submatch", "(a)", "a", "--stream-offsets"])[1])
        assert plain["groups"][1] == {"start": 0, "end": 1}
        assert stream["groups"][1]["end"] > 1  # anchored-stream positions


class TestCompile:
    def test_dot_output(self):
        code, out = call(["compile", "ab*", "--format", "dot", "--ascii"])
        assert code == 0
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_json_output_tagged(self):
        code, out = call(["compile", "(a*)(a*)a", "--format", "json", "--ascii"])
        assert code == 0
        doc = json.loads(out)
        assert doc["initial_ops"]
        assert doc["policy"] == "posix"

    def test_anchored_pattern_without_tags(self):
        # Anchors are stream symbols: the exported machine reads them, and
        # accepts where ``match`` does.
        for pattern, text in (("^a", "a"), ("a$", "a"), ("a\\>", "a"), ("\\<ab", "ab")):
            code, out = call(["compile", pattern, "--format", "json", "--ascii"])
            doc = json.loads(out)
            assert code == 0 and doc["anchored"] is True and doc["accepting"], pattern
            assert doc["tags"] == {"kinds": [], "groups": []}
            assert call(["match", pattern, text])[0] == 0, pattern


class TestTrace:
    def test_trace_chain(self):
        code, out = call(["trace", "ab*", "abb"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("start")
        assert lines[-1].endswith("match")
        assert any("D[b]" in l for l in lines)

    def test_trace_no_match(self):
        code, out = call(["trace", "ab*", "ba"])
        assert code == 1
        assert out.strip().endswith("no match")
        # The trace stops at ∅ and reads no further symbol.
        code, out = call(["trace", "ab*", "baaa"])
        assert code == 1
        assert out.splitlines()[-2:] == ["D[b]  ->  ∅", "nullify   ->  no match"]
        # It stops there also when ∅ comes partway through a boundary's markers.
        code, out = call(["trace", "^&\\>.*", "a"])
        assert code == 1
        assert out.splitlines()[-2:] == ["D[^]  ->  ∅", "nullify   ->  no match"]

    def test_trace_symbols_are_the_anchored_stream(self):
        # One line per symbol of the anchored stream, up to the first ∅:
        # each names the character itself, not its interval's first code
        # point, below 128 and above.
        for pattern, text in (("[a-zé]*", "zé€"), ("a*", "a\nb"), (".*", "ab\nzé€ b")):
            lines = call(["trace", pattern, text])[1].splitlines()[1:-1]
            shown = [line[2:line.index("]  ->  ")] for line in lines]
            symbols = inject_anchors(text).symbols
            assert shown == [show_class(single(cp)) for cp in symbols[:len(lines)]], pattern
            assert len(lines) == len(symbols) or lines[-1].endswith("->  ∅"), pattern

    def test_trace_pinned(self):
        # Start state, one line per stream symbol (anchors included), verdict.
        tail = r"![\A^\<\>$\z]*"
        one = f"β1·a{tail}+β2·aa*λ1τ2a*λ3a{tail}+β3·aa*λ3a{tail}"
        two = f"β1·{tail}+β2·a*λ1τ2a*λ3a{tail}+β3·a*λ3a{tail}"
        end = f"β1·{tail}+β2·a{tail}+β3·aa*λ1τ2a*λ3a{tail}+β4·aa*λ3a{tail}"
        code, out = call(["trace", "(a*)(a*)a", "aa"])
        assert code == 0
        assert out.splitlines() == [
            f"start     β1·a*λ1τ2a*λ3a{tail}",
            f"D[\\A]  ->  {one}",
            f"D[^]  ->  {one}",
            f"D[\\<]  ->  {one}",
            f"D[a]  ->  {two}",
            f"D[a]  ->  {two}",
            f"D[\\>]  ->  {end}",
            f"D[$]  ->  {end}",
            f"D[\\z]  ->  {end}",
            "nullify   ->  match",
        ]


class TestGrep:
    def test_filters_lines(self):
        code, out = call(["grep", "ab*c"], stdin="xabbcx\nnope\nac\n")
        assert code == 0
        assert out.splitlines() == ["xabbcx", "ac"]
        # Groups and the policy change spans, never which lines match.
        for policy in ("posix", "pre-order", "post-order"):
            code, out = call(["grep", r"\<(a)(?lb*)c\>", "--policy", policy],
                             stdin="x abbc y\nabbcd\nac\nzac\n")
            assert code == 0, policy
            assert out.splitlines() == ["x abbc y", "ac"], policy

    def test_no_hits(self):
        code, out = call(["grep", "zz"], stdin="a\nb\n")
        assert code == 1 and out == ""

    def test_lines_end_only_at_newline(self):
        # Form feed, carriage return and the Unicode line separators stay
        # inside a line, as they do for the anchors.
        code, out = call(["grep", "cd"], stdin="ab\fcd\nxx\n")
        assert code == 0 and out == "ab\fcd\n"
        code, out = call(["grep", "^cd"], stdin="ab\fcd\r\nab\u2028cd")
        assert code == 1 and out == ""
        code, out = call(["grep", "b$"], stdin="ab\r\nab\n\nb")
        assert code == 0 and out == "ab\nb\n"
        assert call(["grep", ".*"], stdin="")[0] == 1
        assert call(["grep", "^$"], stdin="\n") == (0, "\n")

    def test_one_machine_per_run(self, monkeypatch):
        from drex import automaton, cli

        built = []

        class Counted(automaton.TaggedDfa):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        # Both names, so that a machine built through the engine counts too.
        monkeypatch.setattr(cli, "TaggedDfa", Counted)
        monkeypatch.setattr(automaton, "TaggedDfa", Counted)
        code, out = call(["grep", "ab"], stdin="xab\nba\nabab\n")
        assert code == 0 and out == "xab\nabab\n"
        assert len(built) == 1


def test_usage_error():
    code, _ = call(["bogus"])
    assert code == 2
