"""Command-line front end.

Subcommands:
    match     print the whole-string verdict (exit 0 match, 1 no match)
    submatch  print the MatchResult JSON with group spans
    compile   write the (tagged) DFA as DOT or JSON
    trace     print the per-symbol derivative chain
    grep      filter stdin/file lines containing a match

Exit codes: 0 success/match, 1 no match, 2 error.
"""

from __future__ import annotations

import argparse
import sys
from .automaton import (
    DEFAULT_STATE_LIMIT,
    StateLimitError,
    TaggedDfa,
    export_dot,
    export_json,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from .anchors import inject_anchors
from .charset import ALL_BASE, ASCII_BASE, Alphabet, CharSet, single
from .engine import MatchResult, match_full
from .semantics import derive, nu_ways  # kept: perfbench/tracing.py wraps these names
from .submatch import POLICY_POSIX
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import (
    POLICIES,
    ParseError,
    Regex,
    SyntaxOptions,
    TagTable,
    cat,
    erase_memory,
    parse,
    show,
    show_class,
    star,
    sym,
)


def _read_input(args) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    if args.input is not None:
        return args.input
    return sys.stdin.read()


def _base(args) -> CharSet:
    return ASCII_BASE if args.ascii_only else ALL_BASE


def _parse(args) -> tuple[Regex, TagTable]:
    return parse(args.pattern, SyntaxOptions(
        policy=args.policy,
        posix_subpatterns=not getattr(args, "no_subpattern_tags", False),
        base=_base(args),
    ))


def _tagged_dfa(args, regex: Regex, tags: TagTable):
    return make_tagged_dfa(regex, tags, args.policy, Alphabet(_base(args), with_anchors=True),
                           state_limit=args.state_bound)


def _match(args, text: str, out) -> MatchResult:
    """Print the trace if asked, then match with the chosen engine."""
    regex, tags = _parse(args)
    if args.show_trace:
        _print_trace(regex, tags, text, out)
    stream_offsets = getattr(args, "stream_offsets", False)
    if args.engine == "dfa":
        return tagged_dfa_match(_tagged_dfa(args, regex, tags), text, stream_offsets)
    return match_full(regex, tags, text, args.policy, stream_offsets)


def _cmd_match(args, text: str, out) -> int:
    result = _match(args, text, out)
    hit = result.matched and result.groups[0] == (0, len(text))
    print("match" if hit else "no match", file=out)
    return 0 if hit else 1


def _cmd_submatch(args, text: str, out) -> int:
    result = _match(args, text, out)
    print(result.to_json(), file=out)
    return 0 if result.matched else 1


def _cmd_compile(args, _text, out) -> int:
    regex, tags = _parse(args)
    if tags.num_tags == 0:
        machine = make_dfa(regex, Alphabet(_base(args), with_anchors=False),
                           state_limit=args.state_bound)
    else:
        machine = _tagged_dfa(args, regex, tags)
    print(export_dot(machine) if args.fmt == "dot" else export_json(machine), file=out)
    return 0


def _print_trace(regex: Regex, tags: TagTable, text: str, out) -> bool:
    """Print the state expression after each symbol; returns the final verdict."""
    m = TaggedDfa(regex, tags, POLICY_POSIX, Alphabet(with_anchors=True), anchored=True,
                  state_limit=float("inf"))
    state = 0
    print(f"start     {show(m.states[state])}", file=out)
    for cp in inject_anchors(text).symbols:
        state, _ = m.step(state, cp)
        print(f"D[{show_class(single(cp))}]  ->  {show(m.states[state])}", file=out)
        if state == m.dead:
            break
    verdict = state in m.accepting
    print(f"nullify   ->  {'match' if verdict else 'no match'}", file=out)
    return verdict


def _cmd_trace(args, text: str, out) -> int:
    regex, tags = _parse(args)
    return 0 if _print_trace(regex, tags, text, out) else 1


def _cmd_grep(args, text: str, out) -> int:
    # Tags never change the language, and a line's verdict needs no spans.
    regex, _ = _parse(args)
    any_sym = star(sym(_base(args)))
    anywhere = erase_memory(cat(any_sym, cat(regex, any_sym)))
    hit_any = False
    # Lines end only at "\n", the one line break the anchors know.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for line in lines:
        result = match_full(anywhere, TagTable(), line)
        if result.matched and result.groups[0] == (0, len(line)):
            print(line, file=out)
            hit_any = True
    return 0 if hit_any else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drex", description="derivative-based regular expression engine"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        p.add_argument("pattern")
        if needs_input:
            p.add_argument("input", nargs="?", default=None)
            p.add_argument("--file", help="read the input from a file")
        p.add_argument("--ascii", action="store_true", dest="ascii_only",
                       help="restrict the base alphabet to code points 0-127")
        p.add_argument("--state-bound", type=int, default=DEFAULT_STATE_LIMIT)
        p.add_argument("--policy", choices=POLICIES, default=POLICY_POSIX)

    p = sub.add_parser("match", help="whole-string verdict")
    common(p)
    p.add_argument("--engine", choices=("lazy", "dfa"), default="lazy")
    p.add_argument("--show-trace", action="store_true",
                   help="print the derivative chain before the verdict")

    p = sub.add_parser("submatch", help="submatch spans as JSON")
    common(p)
    p.add_argument("--engine", choices=("lazy", "dfa"), default="lazy")
    p.add_argument("--show-trace", action="store_true",
                   help="print the derivative chain before the result")
    p.add_argument("--stream-offsets", action="store_true",
                   help="report anchored-stream positions instead of text offsets")
    p.add_argument("--no-subpattern-tags", action="store_true",
                   help="do not wrap bare starred subpatterns in hidden tags")

    p = sub.add_parser("compile", help="compile to a (tagged) DFA")
    common(p, needs_input=False)
    p.add_argument("--format", choices=("dot", "json"), default="dot", dest="fmt")

    p = sub.add_parser("trace", help="print the derivative chain")
    common(p)

    p = sub.add_parser("grep", help="filter lines containing a match")
    common(p)
    return ap


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
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
        handler = {
            "match": _cmd_match,
            "submatch": _cmd_submatch,
            "compile": _cmd_compile,
            "trace": _cmd_trace,
            "grep": _cmd_grep,
        }[args.command]
        return handler(args, text, out)
    except (ParseError, StateLimitError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: pattern or input nests too deeply for the stack", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
