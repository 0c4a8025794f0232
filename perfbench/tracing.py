"""Boundary tracing from outside the program.

For the traced run only, ``Tracer.install`` replaces the names that the
drex modules import from one another (and a few methods) with wrappers
that record a span per call; ``restore`` puts the originals back.  No
file of drex changes.  Spans nest because the run has one thread, so a
span's self time (its duration minus what its child spans cover) is
kept with a stack as the spans close.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# Span names are "<layer>.<boundary>", the layer being the drex module
# that implements the call.
IMPORTED = {
    "drex.engine": {
        "match_full": "engine.match_full",
        "derive": "semantics.derive",
        "nu_ways": "semantics.nu_ways",
        "normalize_step": "submatch.normalize",
        "inject_anchors": "anchors.inject",
    },
    "drex.automaton": {
        "make_dfa": "automaton.make_dfa",
        "make_tagged_dfa": "automaton.make_tagged_dfa",
        "dfa_match": "automaton.dfa_match",
        "tagged_dfa_match": "automaton.tagged_dfa_match",
        "_apply_rel_ops": "automaton.apply_ops",
        "derivative_classes": "semantics.classes",
        "derive": "semantics.derive",
        "nu_ways": "semantics.nu_ways",
        "normalize_step": "submatch.normalize",
        "inject_anchors": "anchors.inject",
    },
    "drex.cli": {
        "run": "cli.run",
        "parse": "syntax.parse",
        "match_full": "engine.match_full",
        "make_dfa": "automaton.make_dfa",
        "make_tagged_dfa": "automaton.make_tagged_dfa",
        "tagged_dfa_match": "automaton.tagged_dfa_match",
        "derive": "semantics.derive",
        "nu_ways": "semantics.nu_ways",
        "normalize_step": "submatch.normalize",
        "inject_anchors": "anchors.inject",
    },
    "drex.syntax": {"parse": "syntax.parse"},
}

METHODS = {
    "drex.automaton": {("Dfa", "step"): "automaton.step", ("TaggedDfa", "step"): "automaton.step"},
    "drex.charset": {
        ("CharSet", "union"): "charset.ops",
        ("CharSet", "intersect"): "charset.ops",
        ("CharSet", "difference"): "charset.ops",
        ("CharSet", "complement"): "charset.ops",
    },
}

# Spans kept for the span file; beyond this the run only aggregates.
SPAN_CAP = 50_000


def count_nodes(r) -> int:
    """Distinct nodes of an expression (shared subtrees count once)."""
    seen = set()
    stack = [r]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        for name in ("head", "tail", "body"):
            child = getattr(x, name, None)
            if child is not None:
                stack.append(child)
        stack.extend(getattr(x, "terms", ()))
    return len(seen)


def _hook_derive(tr, args, result):
    tr.maxima["syntax.expr_nodes_max"] = max(
        tr.maxima["syntax.expr_nodes_max"], count_nodes(result))


def _hook_classes(tr, args, result):
    tr.counts["semantics.blocks"] += len(result.blocks)


def _hook_normalize(tr, args, result):
    tr.counts["submatch.ops_emitted"] += len(result[1])


def _hook_inject(tr, args, result):
    tr.counts["anchors.stream_symbols"] += len(result.symbols)
    tr.counts["anchors.text_chars"] += len(args[0])


def _hook_apply_ops(tr, args, result):
    tr.counts["automaton.ops_applied"] += len(args[1])


def _hook_build(tr, args, result):
    for row in result.transitions:
        tr.counts["automaton.blocks_built"] += len(row)
        tr.counts["automaton.distinct_targets"] += len({entry[1] for entry in row})


HOOKS = {
    "semantics.derive": _hook_derive,
    "semantics.classes": _hook_classes,
    "submatch.normalize": _hook_normalize,
    "anchors.inject": _hook_inject,
    "automaton.apply_ops": _hook_apply_ops,
    "automaton.make_dfa": _hook_build,
    "automaton.make_tagged_dfa": _hook_build,
}


class Tracer:
    """Spans and counters at the drex layer boundaries, kept in memory."""

    def __init__(self):
        self.active = False
        self.call_id = -1
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self.spans: list[tuple] = []  # (id, parent, call, name, start, end)
        self.dropped = 0
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.edges: Counter = Counter()  # "parent>child" span name pairs
        self._saved: list[tuple] = []

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, names in IMPORTED.items():
            mod = importlib.import_module(mod_name)
            for attr, span in names.items():
                self._replace(mod, attr, span)
        for mod_name, methods in METHODS.items():
            mod = importlib.import_module(mod_name)
            for (cls_name, attr), span in methods.items():
                self._replace(getattr(mod, cls_name), attr, span)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr: str, span: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span, original, HOOKS.get(span)))

    def _wrap(self, name: str, fn, hook):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.self_time[name] += duration - frame[3]
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                    tracer.edges[f"{parent[1]}>{name}"] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((span_id, parent[0] if parent else None,
                                         tracer.call_id, name, frame[2], end))
                else:
                    tracer.dropped += 1
            if hook is not None:
                # Hook time is charged to a span of its own so that it
                # inflates no layer's self time.
                start = perf_counter()
                hook(tracer, args, result)
                spent = perf_counter() - start
                tracer.self_time["trace.hooks"] += spent
                if stack:
                    stack[-1][3] += spent
            return result

        return traced

    # -- phases -------------------------------------------------------------

    def reset_totals(self) -> dict:
        """Return the totals so far and start new ones (spans are kept)."""
        totals = {"self": dict(self.self_time), "calls": dict(self.calls),
                  "counts": dict(self.counts), "maxima": dict(self.maxima),
                  "edges": dict(self.edges)}
        self.self_time.clear()
        self.edges.clear()
        self.calls.clear()
        self.counts.clear()
        self.maxima.clear()
        return totals

    def write_spans(self, path: str) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, call, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "call": call,
                                     "name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")
