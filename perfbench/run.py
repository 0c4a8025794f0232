"""drex benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a drex checkout (it needs ``src/drex``).  Sample
processes start one after another in fresh interpreters, never two at
once; each has one caller that waits for every call (a closed loop).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
an untraced and a traced process run the same calls and it reports the
per-layer split and the tracing overhead.  The last line of output is
one JSON object; the lines before it are the same numbers for people.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("lazy_submatch", "dfa_build", "dfa_scan", "grep_lines")

# Percentile reported as call_tail_ms.  Fixed per workload, so a faster
# program (more calls in the same time) is not pushed to a higher
# percentile; the worker runs enough rounds for ten calls beyond it.
TAIL_LEVEL = {"lazy_submatch": 90, "dfa_build": 75, "dfa_scan": 90, "grep_lines": 75}

# Fresh interpreters that only set up; with the measuring process they
# give the median setup_s.
SETUP_PROBES = 6
# Everything the run starts must have ended by then.
RUN_LIMIT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(RuntimeError):
    pass


def spawn(deadline: float, *args: str) -> dict:
    """Run one sample process to its end and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"sample process overran the run limit: {' '.join(args)}") from e
    if proc.returncode != 0:
        raise WorkerError(f"sample process failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float], level: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def item_medians(res: dict, key: str = "times") -> dict[int, float]:
    """Median call time of every input that has a successful call."""
    meds = {i: statistics.median(t) for i, t in enumerate(res[key]) if t}
    if not meds:
        raise WorkerError("no timed call succeeded")
    return meds


def end_to_end(workload: str, res: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    by_item = item_medians(res)
    med = list(by_item.values())
    raw = list(item_medians(res, "raw_times").values())
    total = sum(med)
    symbols = sum(res["symbols"][i] for i in by_item)
    # drex is deterministic and every call starts cold, so repeats of one
    # input differ only by machine noise: each call counts at its input's
    # median, and the tail ranks inputs, not noise.
    pooled = [m for i, m in by_item.items() for _ in res["times"][i]]
    level = TAIL_LEVEL[workload]
    tail_s, beyond = tail(pooled, level)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "us_per_symbol": (total / symbols * 1e6, "us"),
        "call_p50_ms": (statistics.median(med) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    attempted = res["attempted"]
    notes = [
        f"times are at reference speed; the CPU ran at {res['speed_scale']:.3f} of it",
        f"setup_s: median of {len(setups)} fresh interpreters; raw "
        f"{statistics.median(s['setup_raw_s'] for s in setups):.6f} s",
        f"us_per_symbol: sum of per-input medians / {symbols} input symbols"
        + (" (pattern characters)" if workload == "dfa_build" else "")
        + f"; raw {sum(raw) / symbols * 1e6:.4f} us",
        f"call_p50_ms: median over the {len(med)} inputs of each input's median; "
        f"raw {statistics.median(raw) * 1e3:.4f} ms",
        f"call_tail_ms: p{level} of {len(pooled)} calls (each at its input's median), "
        f"{beyond} beyond it",
        f"fail_ratio: {len(res['failures']) / attempted:.4f} ratio "
        f"({len(res['failures'])} of {attempted})",
    ]
    sizes = [s for s in res["sizes"] if s is not None]
    states = sum(s[0] for i, s in enumerate(res["sizes"]) if s and i in by_item)
    if workload == "dfa_build" and states:
        notes.append(f"ms_per_state: {total / states * 1e3:.4f} ms ({states} states per round)")
    if sizes:
        notes.append("dfa_states / dfa_transitions / dfa_ops: "
                     + " / ".join(str(sum(s[k] for s in sizes)) for k in range(3)) + " count")
    if workload == "grep_lines":
        lines = sum(res["lines"][i] for i in by_item)
        notes.append(f"lines_per_s: {lines / total:.3f} lines/s")
    notes.append(f"caches at sample exit: syntax max {max(res['cache_entries'], default=0)}, "
                 f"_dca max {max(res['dca_entries'], default=0)} entries")
    return metrics, notes


def per_layer(base: dict, traced: dict) -> tuple[dict, list[str]]:
    rounds = traced["rounds"]
    setup = traced["trace"]["setup"]
    timed = traced["trace"]["timed"]
    own, calls = timed["self"], timed["calls"]
    counts, maxima, edges = timed["counts"], timed["maxima"], timed["edges"]

    # Self times are scaled to reference speed like the call times.
    scale = traced["speed_scale"]

    def s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names) * scale / rounds

    def n(name: str) -> float:
        return calls.get(name, 0) / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced_round = sum(item_medians(traced).values())
    base_round = sum(item_medians(base).values())
    pooled = sum(t for ts in traced["raw_times"] for t in ts)
    lookups = base["cache_hits"] + base["cache_misses"]
    metrics = {
        "syntax.parse_s": (setup["self"].get("syntax.parse", 0.0) * scale + s("syntax.parse"), "s"),
        "syntax.cache_entries": (max(base["cache_entries"], default=0), "count"),
        "syntax.cache_hit_ratio": (ratio(base["cache_hits"], lookups), "ratio"),
        "syntax.expr_nodes_max": (maxima.get("syntax.expr_nodes_max", 0), "count"),
        "semantics.derive_s": (s("semantics.derive"), "s/round"),
        "semantics.derive_calls": (n("semantics.derive"), "calls/round"),
        "semantics.nu_ways_s": (s("semantics.nu_ways"), "s/round"),
        "semantics.nu_ways_calls": (n("semantics.nu_ways"), "calls/round"),
        "semantics.classes_s": (s("semantics.classes"), "s/round"),
        "semantics.classes_calls": (n("semantics.classes"), "calls/round"),
        "semantics.blocks_per_state": (
            ratio(counts.get("semantics.blocks", 0), calls.get("semantics.classes", 0)), "ratio"),
        "semantics.dca_cache_entries": (max(base["dca_entries"], default=0), "count"),
        "charset.ops_s": (s("charset.ops"), "s/round"),
        "charset.ops_calls": (n("charset.ops"), "calls/round"),
        "submatch.normalize_s": (s("submatch.normalize"), "s/round"),
        "submatch.normalize_calls": (n("submatch.normalize"), "calls/round"),
        "submatch.ops_emitted": (counts.get("submatch.ops_emitted", 0) / rounds, "ops/round"),
        "anchors.inject_s": (s("anchors.inject"), "s/round"),
        "anchors.symbols_per_char": (
            ratio(counts.get("anchors.stream_symbols", 0), counts.get("anchors.text_chars", 0)),
            "ratio"),
        "automaton.build_self_s": (s("automaton.make_dfa", "automaton.make_tagged_dfa"), "s/round"),
        "automaton.distinct_targets_per_block": (
            ratio(counts.get("automaton.distinct_targets", 0),
                  counts.get("automaton.blocks_built", 0)), "ratio"),
        "automaton.step_s": (s("automaton.step"), "s/round"),
        "automaton.step_calls": (n("automaton.step"), "calls/round"),
        "automaton.apply_ops_s": (s("automaton.apply_ops"), "s/round"),
        "automaton.ops_applied": (counts.get("automaton.ops_applied", 0) / rounds, "ops/round"),
        "automaton.scan_self_s": (s("automaton.dfa_match", "automaton.tagged_dfa_match"),
                                  "s/round"),
        "engine.self_s": (s("engine.match_full"), "s/round"),
        "cli.self_s": (s("cli.run"), "s/round"),
        "cli.match_calls": (edges.get("cli.run>engine.match_full", 0) / rounds, "calls/round"),
        "trace.e2e_s": (traced_round, "s/round"),
        "trace.self_cover_ratio": (ratio(sum(own.values()), pooled), "ratio"),
        "trace.overhead_ratio": (ratio(traced_round, base_round) - 1.0, "ratio"),
    }
    notes = [
        f"traced: {rounds} rounds, {traced['trace']['spans']} spans kept "
        f"({traced['trace']['dropped']} dropped past the cap)",
        f"tracing overhead: {traced_round:.6f} s/round traced vs "
        f"{base_round:.6f} s/round untraced",
        f"set-up, traced once: " + ", ".join(
            f"{k} {v:.6f} s" for k, v in sorted(setup["self"].items())),
    ]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "drex", "__init__.py")):
        print("error: run from the root of a drex checkout (no src/drex here)", file=sys.stderr)
        return 2

    # On SIGTERM, subprocess.run kills and reaps the running sample.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as workdir:
        return measure(args, deadline, ["--workload", args.workload, "--seed", str(args.seed),
                                        "--workdir", workdir])


def measure(args, deadline: float, common: list[str]) -> int:
    try:
        if args.trace:
            os.makedirs(".perfbench-out", exist_ok=True)
            # One file per workload: the latest traced run replaces it.
            spans = os.path.join(".perfbench-out", f"spans-{args.workload}.jsonl")
            half = str(args.seconds / 2)
            base = spawn(deadline, *common, "--seconds", half)
            traced = spawn(deadline, *common, "--seconds", half, "--trace", "--spans", spans)
            metrics, notes = per_layer(base, traced)
            notes.append(f"spans written to {spans}")
            runs = (base, traced)
        else:
            setups = [spawn(deadline, *common, "--setup-only") for _ in range(SETUP_PROBES)]
            res = spawn(deadline, *common, "--seconds", str(args.seconds),
                        "--tail-level", str(TAIL_LEVEL[args.workload]))
            setups.append(res)
            metrics, notes = end_to_end(args.workload, res, setups)
            runs = (res,)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: one caller, "
          f"closed loop; {attempted} calls in {sum(r['rounds'] for r in runs)} rounds, "
          f"{len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
