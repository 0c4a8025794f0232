"""One sample process of the benchmark: set up, run timed calls, check.

Started by ``run.py`` in a fresh interpreter, one at a time, with
``src`` on ``PYTHONPATH``.  It prints one JSON object with its
measurements.  The process has one caller and no threads: each call
starts after the previous one returned (a closed loop).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import workloads

# A single call longer than this is stopped and counted as failed.
OVERRUN_S = 10.0
# No new call starts after this long, even before the minimum rounds.
HARD_STOP_S = 90.0

# The module-level caches of drex: the five of ``syntax`` and ``_dca``.
SYNTAX_CACHES = ("is_nullable", "has_memory", "max_bank", "is_memory_eps", "order_key")


# Calibration.  On shared CPUs identical work can take 40% longer (or
# run faster) for tens of seconds as neighbours come and go, and process
# CPU time moves with it.  After every call the worker times a fixed
# pure-Python kernel (frozen-dataclass hashing and dict lookups: what
# drex spends its time on) and scales each call by KERNEL_REF_S /
# (median of the kernel times of the calls within CALIBRATION_WINDOW
# of it).  Times are thus reported at the speed where the kernel takes
# KERNEL_REF_S; the raw times are reported too.
KERNEL_REF_S = 0.002
CALIBRATION_WINDOW = 3


@dataclass(frozen=True, slots=True)
class _Node:
    head: object
    tail: object


def _chains(n: int) -> tuple[list, dict]:
    nodes = []
    for i in range(n):
        node = None
        for j in range(1 + i % 4):
            node = _Node((i * 7 + j) % 11, node)
        nodes.append(node)
    return nodes, {n: i for i, n in enumerate(nodes[::2])}


# Built once, so the kernel allocates nothing: its speed must not depend
# on the state of the allocator.  The small set stays in the CPU caches;
# the pool is larger than them, so the kernel also pays memory latency,
# as drex's own trees do, and tracks both kinds of slowdown.
_NODES, _TABLE = _chains(120)
_POOL, _POOL_TABLE = _chains(20_000)
_POOL_VISITS = 650
_pool_offset = [0]


def kernel() -> int:
    total = 0
    for _ in range(7):
        for node in _NODES:
            total += hash(node) & 1
            total += _TABLE.get(node, 0)
    # A strided walk that starts elsewhere each time, so it misses cache.
    start = _pool_offset[0]
    _pool_offset[0] = (start + 7) % len(_POOL)
    for k in range(_POOL_VISITS):
        node = _POOL[(start + k * 7919) % len(_POOL)]
        total += hash(node) & 1
        total += _POOL_TABLE.get(node, 0)
    return total


def time_kernel() -> float:
    t = perf_counter()
    kernel()
    return perf_counter() - t


class Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise Overrun(f"call exceeded {OVERRUN_S} s")


@contextmanager
def overrun_guard():
    """Raise ``Overrun`` in the guarded block after ``OVERRUN_S``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OVERRUN_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _caches():
    from drex import semantics, syntax

    return [getattr(syntax, n) for n in SYNTAX_CACHES], semantics._dca


def machine_size(m) -> tuple[int, int, int]:
    """(states, transitions, memory ops) of a compiled machine."""
    transitions = sum(len(row) for row in m.transitions)
    ops = 0
    if hasattr(m, "initial_ops"):
        ops = len(m.initial_ops) + sum(len(e[2]) for row in m.transitions for e in row)
        ops += sum(len(info.ops) for info in m.accepting.values())
    return m.n_states, transitions, ops


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tail-level", type=int, default=0,
                    help="percentile that must have ten calls beyond it (0: none)")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the start")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    ap.add_argument("--workdir", required=True, help="directory for input files")
    args = ap.parse_args()
    t_main = time.monotonic()

    # Input generation is the benchmark's own work: excluded from setup_s.
    cases = workloads.generate(args.workload, args.seed)
    workloads.write_files(cases, args.workdir)
    t_setup = time.monotonic()
    import drex  # noqa: F401  (the import is part of the set-up users pay)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    prepared = workloads.prepare(cases)
    items = [it for it in prepared if it.timed]
    setup_raw = (t_main - args.t0) + (time.monotonic() - t_setup)
    setup_s = setup_raw * KERNEL_REF_S / statistics.median(time_kernel() for _ in range(15))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0
    setup_totals = None
    if tracer:
        tracer.active = False
        setup_totals = tracer.reset_totals()
    # What set-up left behind is never collected again, so the
    # per-call collections below stay short.
    gc.collect()
    gc.freeze()
    result = measure(items, args, tracer)
    if tracer:
        tracer.restore()
        result["trace"] = {"setup": setup_totals, "timed": tracer.reset_totals(),
                           "spans": len(tracer.spans), "dropped": tracer.dropped}
        if args.spans:
            tracer.write_spans(args.spans)
    post = post_checks(items, result.pop("last"), [it for it in prepared if not it.timed])
    result["attempted"] += post[0]
    result["failures"] += post[1]
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def min_rounds(n_items: int, level: int) -> int:
    """Fewest rounds that leave ten calls beyond the tail percentile."""
    rounds = 1
    while level:
        n = rounds * n_items
        if n - math.ceil(level / 100 * n) >= 10:
            return rounds
        rounds += 1
    return rounds


def measure(items, args, tracer) -> dict:
    """Run whole rounds of the items until the time is used up."""
    least = min_rounds(len(items), args.tail_level)
    syntax_caches, dca = _caches()
    calls: list[tuple[int, float]] = []  # (item, raw time) in call order
    kernels: list[float] = []  # kernel time after each call
    sizes: list = [None] * len(items)
    last: list = [None] * len(items)
    failures: list[str] = []
    attempted = 0
    cache_entries, dca_entries = [], []
    hits = misses = 0
    rounds = 0
    start = perf_counter()
    round_s = 0.0  # duration of the last round: no round starts that would overrun
    while rounds < least or perf_counter() - start + round_s <= args.seconds:
        round_start = perf_counter()
        for i, item in enumerate(items):
            if perf_counter() - start > HARD_STOP_S:
                attempted += 1
                failures.append(f"{item.label}: not run, {HARD_STOP_S} s limit reached")
                continue
            # Sample isolation: no call inherits warm caches or garbage.
            for c in syntax_caches:
                c.cache_clear()
            dca.cache_clear()
            gc.collect()
            attempted += 1
            if tracer:
                tracer.call_id = attempted
                tracer.active = True
            try:
                with overrun_guard():
                    t = perf_counter()
                    res = item.call()
                    dt = perf_counter() - t
            except Exception as e:  # a failed call is counted, not fatal
                failures.append(f"{item.label}: {type(e).__name__}: {e}"[:300])
                continue
            finally:
                if tracer:
                    tracer.active = False
            infos = [c.cache_info() for c in syntax_caches]
            cache_entries.append(sum(x.currsize for x in infos))
            dca_entries.append(dca.cache_info().currsize)
            hits += sum(x.hits for x in infos)
            misses += sum(x.misses for x in infos)
            calls.append((i, dt))
            kernels.append(time_kernel())
            err = item.check(res)
            if err is None and item.machine is not None:
                size = machine_size(item.machine(res))
                if sizes[i] is None:
                    sizes[i] = size
                elif size != sizes[i]:
                    err = f"machine size {size} != {sizes[i]} of the first round"
            if err is not None:
                failures.append(f"{item.label}: {err}"[:300])
            last[i] = res
        rounds += 1
        round_s = perf_counter() - round_start
        if perf_counter() - start > HARD_STOP_S:
            break
    times = [[] for _ in items]  # calibrated
    raw = [[] for _ in items]
    w = CALIBRATION_WINDOW
    for j, (i, dt) in enumerate(calls):
        raw[i].append(dt)
        times[i].append(dt * KERNEL_REF_S / statistics.median(kernels[max(0, j - w): j + w + 1]))
    return {
        "labels": [it.label for it in items],
        "times": times,
        "raw_times": raw,
        "speed_scale": KERNEL_REF_S / statistics.median(kernels) if kernels else 1.0,
        "symbols": [it.symbols for it in items],
        "lines": [it.lines for it in items],
        "sizes": sizes,
        "rounds": rounds,
        "attempted": attempted,
        "failures": failures,
        "cache_entries": cache_entries,
        "dca_entries": dca_entries,
        "cache_hits": hits,
        "cache_misses": misses,
        "last": last,
    }


def post_checks(items, last, probes) -> tuple[int, list[str]]:
    """Run the untimed checks; each counts as one attempted operation.

    They are the slower cross-checks, once per timed item on its last
    result, and the correctness probes.
    """
    checks = [(it, lambda it=it, res=res: it.post(res))
              for it, res in zip(items, last) if it.post is not None and res is not None]
    checks += [(it, lambda it=it: it.check(it.call())) for it in probes]
    out = []
    for item, check in checks:
        try:
            with overrun_guard():
                err = check()
        except Exception as e:  # a crash in a check is a failure like any other
            err = f"{type(e).__name__}: {e}"
        if err is not None:
            out.append(f"{item.label}: {err}"[:300])
    return len(checks), out


if __name__ == "__main__":
    sys.exit(main())
