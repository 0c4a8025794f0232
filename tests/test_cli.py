"""Command-line front end: verdicts, JSON, DOT, trace, grep."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from drex.anchors import inject_anchors
from drex.automaton import TaggedDfa, tagged_dfa_match
from drex.charset import single
from drex.cli import build_parser, run
from drex.engine import match_lazy
from drex.syntax import POLICY_POSIX, SyntaxOptions, parse, show_class


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


def _cli_env() -> dict:
    """The environment of a ``python -m drex.cli`` subprocess: this tree's package first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestMatch:
    def test_match_exit_codes(self):
        code, out = call(["match", "ab*", "abb"])
        assert code == 0 and out.strip() == "match"
        code, out = call(["match", "ab*", "ba"])
        assert code == 1 and out.strip() == "no match"

    def test_match_dfa_engine_agrees(self):
        # ``match`` runs a machine that tracks no tags, lazily; the tagged
        # machine built in full first, as ``compile`` builds it, and
        # ``trace``'s lazy tagged run give the same verdict.
        patterns = ["ab*", "(?:a+b)*a", "(a*)(a*)a", "~a", "[ab]&[bc]b*",
                    "^ab$", "(?:a+bb*a)*"]
        texts = ["", "a", "b", "ab", "ba", "abb", "bab", "aab"]
        for pattern in patterns:
            built = TaggedDfa(*parse(pattern), POLICY_POSIX).build()
            for text in texts:
                lazy = call(["match", pattern, text])[0]
                result = tagged_dfa_match(built, text)
                dfa = 0 if result.matched and result.groups[0] == (0, len(text)) else 1
                trace = call(["trace", pattern, text])[0]
                assert lazy == dfa == trace, (pattern, text)

    def test_match_tracks_no_tags(self):
        # The verdict needs no spans: without tags this run makes 3
        # states, with them 6, so a bound of 4 holds.
        assert call(["match", "((a)*b)*", "aabab", "--state-bound", "4"]) == (0, "match\n")

    def test_verdict_independent_of_policy(self):
        # The policy ranks spans; whether the whole text matches is the
        # language's verdict, which ``trace`` and ``match_lazy`` give too.
        for pattern in ("a*", "(a)*", "(a)(b*)"):
            for text in ("", "a", "aaa", "ab", "abb", "ba"):
                got = call(["match", pattern, text])[0]
                for policy in ("posix", "pre-order", "post-order"):
                    r, _ = parse(pattern, SyntaxOptions(policy=policy))
                    want = call(["trace", pattern, text, "--policy", policy])[0]
                    assert want == (0 if match_lazy(r, text) else 1), (pattern, text)
                    assert got == want, (pattern, policy, text)

    def test_show_trace_steps_the_matching_machine(self, monkeypatch):
        # The trace lines come first, then the result; the --ascii
        # machine traces like the one ``trace`` builds.
        trace = call(["trace", "(a*)(b)", "aab"])[1]
        code, out = call(["submatch", "(a*)(b)", "aab", "--show-trace",
                          "--ascii", "--policy", "pre-order"])
        lines = out.splitlines()
        assert code == 0 and lines[:-1] == trace.splitlines()
        assert json.loads(lines[-1])["groups"][1] == {"start": 0, "end": 2}
        # The trace prints from the run that makes the result: no second
        # walk over an anchor stream, no stepping outside the matching loop.
        forms = (["trace", "(a*)(b)", "aab"], ["submatch", "(a*)(b)", "aab", "--show-trace"])
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

    def test_file_and_argument_together_are_a_usage_error(self, tmp_path, capsys):
        # The text has one source; --file does not quietly win over the argument.
        path = tmp_path / "in.txt"
        path.write_text("a\n", encoding="utf-8")
        for command in ("match", "submatch", "trace", "grep"):
            assert call([command, "a", "zzz", "--file", str(path)]) == (2, ""), command
            assert "not allowed with argument input" in capsys.readouterr().err, command
        assert call(["grep", "a", "--file", str(path)]) == (0, "a\n")

    def test_ascii_rejects_wider_input(self, capsys):
        for argv in (["match", "--ascii", "~a", "é"], ["submatch", "--ascii", "(a)", "é"]):
            code, out = call(argv)
            assert code == 2 and out == "", argv
            assert "input symbol 0xe9 outside the --ascii alphabet" in capsys.readouterr().err
        assert call(["match", "--ascii", "~a", "e"])[0] == 0

    def test_recursion_overflow_exit_2(self, capsys):
        literal = "a" * 30_000
        nested = "(" * 5000 + "a" + ")" * 5000
        for pattern, text in [(literal, literal), (nested, "a")]:
            code, out = call(["match", pattern, text])
            assert code == 2 and out == ""
            assert "nests too deeply for the stack" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, monkeypatch, capsys):
        # The 0/1/2 contract holds when a run runs out of memory.
        from drex import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "tagged_dfa_match", exhausted)
        for argv in (["grep", "a", "abc"], ["match", "a", "abc"], ["submatch", "(a)", "abc"]):
            assert call(argv) == (2, ""), argv
            assert capsys.readouterr().err == "error: out of memory\n", argv

    def test_parse_error_exit_2(self, capsys):
        code, _ = call(["match", "(a", "x"])
        assert code == 2
        assert capsys.readouterr().err == "error: unbalanced group (at position 0)\n"

    def test_state_bound_error(self, capsys):
        # Every subcommand builds under the bound, lazily or in full.
        pattern = "(?:a+b)*a(?:a+b)(?:a+b)"
        bounded = [pattern, "aab", "--state-bound", "3"]
        for argv in (["match", *bounded], ["submatch", *bounded], ["trace", *bounded],
                     ["grep", *bounded], ["compile", pattern, "--state-bound", "3"]):
            code, _ = call(argv)
            assert code == 2, argv
            assert "state count exceeds" in capsys.readouterr().err, argv
        # The start state counts too: a bound below 1 admits no machine.
        for bound in ("0", "-3"):
            code, _ = call(["compile", "∅", "--state-bound", bound])
            assert code == 2, bound
            assert "state count exceeds" in capsys.readouterr().err, bound
        assert call(["compile", "∅", "--state-bound", "1"])[0] == 0

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

    def test_ascii_state_label_reparses(self):
        # ``.`` is every base symbol on any alphabet: --ascii narrows the
        # machine, not the pattern, so state 0 prints as written.
        code, out = call(["compile", ".a", "--format", "json", "--ascii"])
        doc = json.loads(out)
        assert code == 0 and doc["states"][0] == r".a[\A^\<\>$\z]*"
        assert doc["transitions"][0]["symbols"] == r"[\x0000-\x007f]"


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
        tail = r"[\A^\<\>$\z]*"
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
        # Groups change spans, never which lines match.
        code, out = call(["grep", r"\<(a)(?lb*)c\>"], stdin="x abbc y\nabbcd\nac\nzac\n")
        assert code == 0
        assert out.splitlines() == ["x abbc y", "ac"]

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

    # A carriage return is an ordinary symbol whatever the input source:
    # ``ab\r\n`` has no line ending in ``b``, ``ab\rcd\n`` is one line,
    # and ``$`` does not hold before the ``\r`` of ``a\rb``.
    CARRIAGE_RETURNS = [(["grep", "b$"], "ab\r\n", (1, "")),
                        (["grep", "cd"], "ab\rcd\n", (0, "ab\rcd\n")),
                        (["submatch", "(a)$"], "a\rb", (1, '{"matched": false, "groups": []}\n'))]

    def test_every_input_source_keeps_carriage_returns(self, tmp_path):
        path = tmp_path / "in.txt"
        for argv, text, want in self.CARRIAGE_RETURNS:
            path.write_bytes(text.encode("utf-8"))
            assert call(argv, stdin=text) == want, (argv, text)
            assert call([*argv, text]) == want, (argv, text)
            assert call([*argv, "--file", str(path)]) == want, (argv, text)

    def test_stdin_pipe_keeps_carriage_returns(self):
        for argv, text, want in self.CARRIAGE_RETURNS:
            proc = subprocess.run([sys.executable, "-m", "drex.cli", *argv],
                                  input=text.encode("utf-8"), capture_output=True,
                                  env=_cli_env(), timeout=60)
            assert (proc.returncode, proc.stdout.decode("utf-8")) == want, (argv, text)
            assert proc.stderr == b""

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

    def test_closed_stdout_is_quiet(self, tmp_path):
        # A reader that leaves early (``drex grep a --file F | head -1``)
        # is no error: grep stops writing and exits with its verdict.  The
        # output is larger than the pipe, so the writer meets the closed end.
        path = tmp_path / "in.txt"
        path.write_text("a\n" * 200_000, encoding="utf-8")
        proc = subprocess.Popen([sys.executable, "-m", "drex.cli", "grep", "a", "--file", str(path)],
                                env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"a\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0 and err == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()


def test_usage_error():
    code, _ = call(["bogus"])
    assert code == 2


def test_every_option_changes_the_output(capsys):
    # Each subcommand's options, pinned: one that selects nothing (a
    # second engine, a policy over a verdict, a trace ``trace`` already
    # prints) must not come back unnoticed.
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in subparsers.choices.items()}
    common = ["-h", "--help", "--file", "--ascii", "--state-bound"]
    assert options == {
        "match": common,
        "submatch": [*common, "--policy", "--show-trace", "--stream-offsets",
                     "--no-subpattern-tags"],
        "compile": ["-h", "--help", "--ascii", "--state-bound", "--policy", "--format"],
        "trace": [*common, "--policy"],
        "grep": common,
    }
    for argv in (["match", "a", "a", "--engine", "dfa"], ["submatch", "a", "a", "--engine", "lazy"],
                 ["match", "a", "a", "--show-trace"], ["match", "a", "a", "--policy", "posix"],
                 ["grep", "a", "--policy", "posix"]):
        assert call(argv, stdin="a\n") == (2, ""), argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
