"""Command-line front end.

Subcommands:
    match     print the whole-string verdict (exit 0 match, 1 no match)
    submatch  print the MatchResult JSON with group spans
    compile   write the tagged DFA as DOT or JSON
    trace     print the per-symbol derivative chain
    grep      filter stdin/file lines containing a match

Exit codes: 0 success/match, 1 no match, 2 error.
"""

from __future__ import annotations

import argparse
import os
import sys
from .automaton import (
    DEFAULT_STATE_LIMIT,
    StateLimitError,
    TaggedDfa,
    export_dot,
    export_json,
    tagged_dfa_match,
)
from .automaton import make_dfa, make_tagged_dfa  # kept: perfbench/tracing.py wraps these names
from .anchors import inject_anchors  # kept: perfbench/tracing.py wraps this name
from .charset import ALL_BASE, ASCII_BASE, Alphabet, single
from .engine import match_full  # kept: perfbench/tracing.py wraps this name
from .semantics import derive, nu_ways  # kept: perfbench/tracing.py wraps these names
from .submatch import show_state
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import (
    POLICIES,
    POLICY_POSIX,
    ParseError,
    Regex,
    SyntaxOptions,
    TagTable,
    cat,
    parse,
    show_class,
    star,
    sym,
)


class _Out:
    """Drops every write once the reader has gone (``drex grep … | head``)."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, s: str) -> None:
        if self.stream is not None:
            try:
                self.stream.write(s)
            except BrokenPipeError:
                self.stream = None


def _read_input(args) -> str:
    """The text as given: a file is read without newline translation, so
    its carriage returns reach the matcher as they do from stdin."""
    if args.file:
        with open(args.file, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    if args.input is not None:
        return args.input
    return sys.stdin.read()


def _parse(args) -> tuple[Regex, TagTable]:
    return parse(args.pattern, SyntaxOptions(
        policy=args.policy,
        posix_subpatterns=not getattr(args, "no_subpattern_tags", False),
    ))


def _machine(args, regex: Regex, tags: TagTable, policy: str) -> TaggedDfa:
    """The run's one machine, on the flags' alphabet and state bound.

    It is built as runs reach its states and edges; only ``compile``
    calls ``build()`` to take every edge at once.  A trace prints its
    states from the run that makes the result.
    """
    return TaggedDfa(regex, tags, policy, Alphabet(ASCII_BASE if args.ascii_only else ALL_BASE),
                     args.state_bound)


def _cmd_run(args, text: str, out) -> int:
    """``match``, ``submatch`` and ``trace``: one lazy run of the machine over the text.

    A trace (``trace``, ``submatch --show-trace``) is printed as the run
    goes: the start state's expression, the state after each stream
    symbol up to the first ∅, then whether the last state printed
    accepts, which is ``trace``'s verdict.  ``match`` parses under posix,
    which keeps the longest prefix match, so it has the whole text
    exactly when that match ends at the end of the text.  Its verdict
    needs no spans, so, as in ``grep``, its machine tracks no tags.
    That mostly makes fewer states, so ``--state-bound`` trips later,
    but not always: ``(a*b*)*`` on ``abab`` makes 5 states, not 4.
    """
    regex, tags = _parse(args)
    m = _machine(args, regex, TagTable() if args.command == "match" else tags, args.policy)
    last, stopped = 0, False

    def observe(cp: int, state: int) -> None:
        nonlocal last, stopped
        if not stopped:
            print(f"D[{show_class(single(cp))}]  ->  {show_state(m.states[state])}", file=out)
            last, stopped = state, state == m.dead

    if args.show_trace:
        print(f"start     {show_state(m.states[0])}", file=out)
    result = tagged_dfa_match(m, text, getattr(args, "stream_offsets", False),
                              observe if args.show_trace else None)
    verdict = last in m.accepting
    if args.show_trace:
        print(f"nullify   ->  {'match' if verdict else 'no match'}", file=out)
    if args.command == "submatch":
        print(result.to_json(), file=out)
        return 0 if result.matched else 1
    if args.command == "match":
        verdict = result.matched and result.groups[0] == (0, len(text))
        print("match" if verdict else "no match", file=out)
    return 0 if verdict else 1


def _cmd_compile(args, _text, out) -> int:
    machine = _machine(args, *_parse(args), args.policy).build()
    print(export_dot(machine) if args.fmt == "dot" else export_json(machine), file=out)
    return 0


def _cmd_grep(args, text: str, out) -> int:
    # A line's verdict needs no spans: the machine tracks no tags.
    regex, _ = _parse(args)
    any_sym = star(sym(ALL_BASE))
    anywhere = cat(any_sym, cat(regex, any_sym))
    # One machine serves every line.  Posix keeps the longest match, which
    # the whole-line test below needs.
    m = _machine(args, anywhere, TagTable(), POLICY_POSIX)
    hit_any = False
    # Lines end only at "\n", the one line break the anchors know.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        result = tagged_dfa_match(m, line)
        if result.matched and result.groups[0] == (0, len(line)):
            print(line, file=out)
            hit_any = True
            if out.stream is None:
                break  # the reader has gone, and the verdict is known
    return 0 if hit_any else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drex", description="derivative-based regular expression engine"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        p.add_argument("pattern")
        if needs_input:  # the text comes from one source: argument, --file or stdin
            source = p.add_mutually_exclusive_group()
            source.add_argument("input", nargs="?", default=None)
            source.add_argument("--file", help="read the input from a file")
        p.add_argument("--ascii", action="store_true", dest="ascii_only",
                       help="restrict the base alphabet to code points 0-127")
        p.add_argument("--state-bound", type=int, default=DEFAULT_STATE_LIMIT)
        # ``match`` and ``grep`` print a verdict, which needs no spans: they
        # parse under posix and take no --policy.
        p.set_defaults(policy=POLICY_POSIX, show_trace=False)

    p = sub.add_parser("match", help="whole-string verdict")
    common(p)

    p = sub.add_parser("submatch", help="submatch spans as JSON")
    common(p)
    p.add_argument("--policy", choices=POLICIES, default=POLICY_POSIX)
    p.add_argument("--show-trace", action="store_true",
                   help="print the derivative chain before the result")
    p.add_argument("--stream-offsets", action="store_true",
                   help="report anchored-stream positions instead of text offsets")
    p.add_argument("--no-subpattern-tags", action="store_true",
                   help="do not wrap bare starred subpatterns in hidden tags")

    p = sub.add_parser("compile", help="compile to a tagged DFA")
    common(p, needs_input=False)
    p.add_argument("--policy", choices=POLICIES, default=POLICY_POSIX)
    p.add_argument("--format", choices=("dot", "json"), default="dot", dest="fmt")

    p = sub.add_parser("trace", help="print the derivative chain")
    common(p)
    p.add_argument("--policy", choices=POLICIES, default=POLICY_POSIX)
    p.set_defaults(show_trace=True)

    p = sub.add_parser("grep", help="filter lines containing a match")
    common(p)
    return ap


def run(argv: list[str], out=None) -> int:
    out = _Out(out if out is not None else sys.stdout)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        text = None
        if args.command != "compile":
            text = _read_input(args)
            if args.ascii_only:
                bad = next((c for c in text if c > "\x7f"), None)
                if bad is not None:
                    raise ValueError(f"input symbol {ord(bad):#x} outside the --ascii alphabet")
        handler = {"compile": _cmd_compile, "grep": _cmd_grep}.get(args.command, _cmd_run)
        return handler(args, text, out)
    except (ParseError, StateLimitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: pattern or input nests too deeply for the stack", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone: the flush at exit must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
