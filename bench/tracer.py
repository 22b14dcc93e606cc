"""Span and counter recording around calls into the declift modules.

Each wrapped function records one span (name, start, end, parent) per
call.  A layer's self time is its span's duration minus the duration of
the spans opened while it ran; wrappers nest strictly, because the
process is single-threaded, so the child spans never overlap.  Spans stay
in memory until `summary()` folds them into per-layer totals.

Functions are wrapped in the namespace where their caller looks them up:
`declift.cli` binds its helpers with `from .x import y`, so patching
`declift.lifting.ground` would leave the CLI's own binding untouched.
`LAYERS` lists every wrap point.  A wrap point whose attribute no longer
exists is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _text_bytes(text) -> int:
    return len(text.encode("utf-8"))


def _count_parse(counts, args, kwargs, result):
    counts["modelio.bytes_read"] += _text_bytes(args[0] if args else kwargs["text"])


def _count_written(counts, args, kwargs, result):
    counts["modelio.bytes_written"] += _text_bytes(result)


def _count_ground(counts, args, kwargs, result):
    counts["lifting.ground_transition_rows"] += len(result.transition)


def _count_nano(counts, args, kwargs, result):
    counts["nano.table_keys"] += len(result.transition) + sum(
        len(row) for row in result.sensor.values()
    )


def _count_lifted(counts, args, kwargs, result):
    counts["solvers.joint_candidates"] += result.statistics["joint_candidates"]


def _count_ground_solve(counts, args, kwargs, result):
    counts["solvers.ground_evaluations"] += result.statistics["evaluations"]


def _count_prune(counts, args, kwargs, result):
    counts["solvers.dominance_prune.calls"] += 1
    counts["solvers.pomdp_generated"] += len(args[0] if args else kwargs["vectors"])
    counts["solvers.pomdp_surviving"] += len(result)


def _count_linprog(counts, args, kwargs, result):
    counts["solvers.linprog_calls"] += 1


def _count_allocations(counts, args, kwargs, result):
    counts["solvers.allocation_enumerations"] += 1


# (module, attribute, span name or None for a counter alone, hook that
#  updates the counters from the call, counters the hook fills)
LAYERS = (
    ("declift.cli", "parse_model", "modelio.parse_model", _count_parse, ("modelio.bytes_read",)),
    ("declift.cli", "serialize_model", "modelio.serialize_model", _count_written, ("modelio.bytes_written",)),
    ("declift.cli", "canonical_json", None, _count_written, ("modelio.bytes_written",)),
    ("declift.modelio", "validate_model", "models.validate_model", None, ()),
    ("declift.cli", "range_partition", "lifting.range_partition", None, ()),
    ("declift.cli", "symmetry_refine", "lifting.symmetry_refine", None, ()),
    ("declift.cli", "lift", "lifting.lift", None, ()),
    ("declift.cli", "ground", "lifting.ground", _count_ground, ("lifting.ground_transition_rows",)),
    ("declift.cli", "generate_nano", "nano.generate_nano", _count_nano, ("nano.table_keys",)),
    ("declift.cli", "size_report", "sizes.size_report", None, ()),
    ("declift.cli", "lifted_exhaustive", "solvers.lifted_exhaustive", _count_lifted, ("solvers.joint_candidates",)),
    ("declift.cli", "decpomdp_exhaustive", "solvers.decpomdp_exhaustive", _count_ground_solve, ("solvers.ground_evaluations",)),
    ("declift.cli", "pomdp_plan_iteration", "solvers.pomdp_plan_iteration", None, ()),
    ("declift.solvers", "lifted_exhaustive", "solvers.lifted_exhaustive", _count_lifted, ("solvers.joint_candidates",)),
    ("declift.solvers", "decpomdp_exhaustive", "solvers.decpomdp_exhaustive", _count_ground_solve, ("solvers.ground_evaluations",)),
    ("declift.solvers", "dominance_prune", "solvers.dominance_prune", _count_prune,
     ("solvers.dominance_prune.calls", "solvers.pomdp_generated", "solvers.pomdp_surviving")),
    ("declift.solvers", "linprog", "solvers.linprog", _count_linprog, ("solvers.linprog_calls",)),
    ("declift.solvers", "_group_allocations", None, _count_allocations, ("solvers.allocation_enumerations",)),
)


class Tracer:
    """Installs the wrappers of `LAYERS`, records spans, and restores."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list = []

    def install(self):
        provided: set[str] = set()
        for module_name, attr, span_name, hook, counters in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            names = set(counters) | ({span_name} if span_name else set())
            if original is None:
                self.missing |= names
                continue
            provided |= names
            if span_name is None:
                wrapper = self._counter_wrapper(original, hook)
            else:
                wrapper = self._span_wrapper(original, span_name, hook)
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))
        self.missing -= provided
        return self

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _counter_wrapper(self, original, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _span_wrapper(self, original, span_name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-layer self seconds, and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            self_s[name] += end - start - children
        return {"self_s": dict(self_s), "counts": dict(self.counts), "missing": sorted(self.missing)}


def merge(summaries) -> dict:
    """Sum several summaries, e.g. those of one pass's CLI processes."""
    out = {"self_s": Counter(), "counts": Counter()}
    missing: set[str] = set()
    for summary in summaries:
        for key in out:
            out[key].update(summary[key])
        missing.update(summary["missing"])
    merged = {key: dict(value) for key, value in out.items()}
    merged["missing"] = sorted(missing)
    return merged


def span_names() -> list[str]:
    """The span names of `LAYERS`, once each, in order."""
    return list(dict.fromkeys(span for _, _, span, _, _ in LAYERS if span))


def counter_names() -> list[str]:
    """The counter names of `LAYERS`, once each, in order."""
    return list(dict.fromkeys(name for *_, counters in LAYERS for name in counters))


def counter_unit(name: str) -> str:
    return "bytes" if ".bytes_" in name else "count"
