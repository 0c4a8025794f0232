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
from dataclasses import dataclass
from .automaton import (
    DEFAULT_STATE_LIMIT,
    StateLimitError,
    export_dot,
    export_json,
    make_dfa,
    make_tagged_dfa,
    tagged_dfa_match,
)
from .anchors import inject_anchors
from .charset import ALL_BASE, ASCII_BASE, Alphabet, single
from .engine import match_full, start, step
from .semantics import nu_ways
from .semantics import derive  # kept: perfbench/tracing.py wraps this name
from .submatch import POLICIES, POLICY_POSIX
from .submatch import normalize_step  # kept: perfbench/tracing.py wraps this name
from .syntax import EMPTY, ParseError, SyntaxOptions, cat, parse, show, show_class, star, sym


@dataclass
class CliConfig:
    command: str
    pattern: str
    inputs: list[str]
    policy: str = POLICY_POSIX
    engine: str = "lazy"
    fmt: str = "text"
    state_bound: int = DEFAULT_STATE_LIMIT
    ascii_only: bool = False
    show_trace: bool = False
    stream_offsets: bool = False
    posix_subpatterns: bool = True


def _read_inputs(args) -> list[str]:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return [fh.read()]
    if args.input is not None:
        return [args.input]
    return [sys.stdin.read()]


def _options(cfg: CliConfig) -> SyntaxOptions:
    base = ASCII_BASE if cfg.ascii_only else ALL_BASE
    return SyntaxOptions(
        policy=cfg.policy,
        posix_subpatterns=cfg.posix_subpatterns,
        base=base,
    )


def _alphabet(cfg: CliConfig, with_anchors: bool) -> Alphabet:
    return Alphabet(
        base=ASCII_BASE if cfg.ascii_only else ALL_BASE,
        with_anchors=with_anchors,
    )


def _cmd_match(cfg: CliConfig, out) -> int:
    if cfg.show_trace:
        _print_trace(cfg, out)
    regex, tags = parse(cfg.pattern, _options(cfg))
    text = cfg.inputs[0]
    if cfg.engine == "dfa":
        machine = make_tagged_dfa(
            regex, tags, cfg.policy, _alphabet(cfg, True),
            state_limit=cfg.state_bound,
        )
        result = tagged_dfa_match(machine, text)
    else:
        result = match_full(regex, tags, text, cfg.policy)
    hit = result.matched and result.groups[0] == (0, len(text))
    print("match" if hit else "no match", file=out)
    return 0 if hit else 1


def _cmd_submatch(cfg: CliConfig, out) -> int:
    if cfg.show_trace:
        _print_trace(cfg, out)
    regex, tags = parse(cfg.pattern, _options(cfg))
    text = cfg.inputs[0]
    if cfg.engine == "dfa":
        machine = make_tagged_dfa(
            regex, tags, cfg.policy, _alphabet(cfg, True),
            state_limit=cfg.state_bound,
        )
        result = tagged_dfa_match(machine, text, stream_offsets=cfg.stream_offsets)
    else:
        result = match_full(
            regex, tags, text, cfg.policy, stream_offsets=cfg.stream_offsets
        )
    print(result.to_json(), file=out)
    return 0 if result.matched else 1


def _cmd_compile(cfg: CliConfig, out) -> int:
    regex, tags = parse(cfg.pattern, _options(cfg))
    if tags.num_tags == 0:
        machine = make_dfa(
            regex, _alphabet(cfg, False), state_limit=cfg.state_bound
        )
    else:
        machine = make_tagged_dfa(
            regex, tags, cfg.policy, _alphabet(cfg, True),
            state_limit=cfg.state_bound,
        )
    print(export_dot(machine) if cfg.fmt == "dot" else export_json(machine), file=out)
    return 0


def _print_trace(cfg: CliConfig, out) -> bool:
    """Print the per-symbol derivative chain; returns the final verdict."""
    regex, tags = parse(cfg.pattern, _options(cfg))
    symbols = inject_anchors(cfg.inputs[0]).symbols
    expr, store, _ = start(regex, tags, pad=True)
    print(f"start     {show(expr)}", file=out)
    pos = 0
    for cp in symbols:
        expr, _ = step(expr, cp, pos, tags, store)
        pos += 1
        print(f"D[{show_class(single(cp))}]  ->  {show(expr)}", file=out)
        if expr == EMPTY:
            break
    verdict = bool(nu_ways(expr, pos))
    print(f"nullify   ->  {'match' if verdict else 'no match'}", file=out)
    return verdict


def _cmd_trace(cfg: CliConfig, out) -> int:
    return 0 if _print_trace(cfg, out) else 1


def _cmd_grep(cfg: CliConfig, out) -> int:
    regex, tags = parse(cfg.pattern, _options(cfg))
    base = ASCII_BASE if cfg.ascii_only else ALL_BASE
    anywhere = cat(star(sym(base)), cat(regex, star(sym(base))))
    lines = cfg.inputs[0].splitlines()
    hit_any = False
    for line in lines:
        result = match_full(anywhere, tags, line, cfg.policy)
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
    cfg = CliConfig(
        command=args.command,
        pattern=args.pattern,
        inputs=[],
        policy=getattr(args, "policy", POLICY_POSIX),
        engine=getattr(args, "engine", "lazy"),
        fmt=getattr(args, "fmt", "text"),
        state_bound=args.state_bound,
        ascii_only=args.ascii_only,
        stream_offsets=getattr(args, "stream_offsets", False),
        show_trace=getattr(args, "show_trace", False),
        posix_subpatterns=not getattr(args, "no_subpattern_tags", False),
    )
    try:
        if cfg.command != "compile":
            cfg.inputs = _read_inputs(args)
            if cfg.ascii_only:
                bad = next((c for text in cfg.inputs for c in text if c > "\x7f"), None)
                if bad is not None:
                    raise ValueError(f"input symbol {ord(bad):#x} outside the --ascii alphabet")
        handler = {
            "match": _cmd_match,
            "submatch": _cmd_submatch,
            "compile": _cmd_compile,
            "trace": _cmd_trace,
            "grep": _cmd_grep,
        }[cfg.command]
        return handler(cfg, out)
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
