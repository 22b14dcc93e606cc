"""One benchmark process: set up a workload, run timed operations, check them.

Started by run.py with the pinned environment.  It prints READY just
before its first timed operation (run.py times set-up up to that line).
Then it prints a WAIT line and waits for a line on stdin, so that run.py
can measure the machine's speed (calibration.py) while nothing else
runs: before the first operation, at the end of each pass, with the
share of the run measured so far, and, for a workload whose operations
run in child processes, after each operation.  An operation that runs in
this process is probed while it runs instead.  At the end it prints one
JSON line with the operation counts, the failures, the times of every
operation and the metrics it measures itself.

A pass runs the workload's operation list once.  A run makes at least
MIN_PASSES passes, so that their median has a middle, and adds more while
one more would bring their summed wall time closer to --seconds (judged
by the median pass so far).  With --trace 1, passes
alternate untraced and traced, starting untraced: the traced ones give
the self times and counters, the untraced ones the per-subcommand CLI
times, and the difference of the two medians gives the tracing overhead.

A CLI pass is checked as soon as it ends, because the next pass
overwrites the files its checks read.  In-process passes are checked
after the last one, once peak RSS has been read, so that the references
their checks build do not count in it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

IMPORT_SAMPLES = 3
MIN_PASSES = 3


@dataclass
class Pass:
    wall_s: float  # unscaled, probes included
    traced: bool
    # (op name, result or None, traceback or None, wall s, CPU s,
    #  scaled (wall, CPU) s from probes or None)
    results: list
    trace: dict | None


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(workload, traced: bool, between_ops=None, probed: bool = False) -> Pass:
    """Run the operations once; `between_ops()` runs between two, untimed.

    With `probed`, each operation runs under a calibration.Prober.
    """
    from calibration import Prober
    from tracer import Tracer, merge

    workload.traced = traced
    tracer = Tracer().install() if traced and workload.in_process else None
    results = []
    for i, (name, op) in enumerate(workload.ops):
        if i and between_ops is not None:
            between_ops()
        with contextlib.nullcontext() if not probed else Prober() as prober:
            start, cpu_start = time.perf_counter(), _cpu_seconds()
            try:
                result, error = op(), None
            except Exception:  # an operation that raises counts as failed
                result, error = None, traceback.format_exc()
            wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu_start
        results.append((name, result, error, wall, cpu, prober.scale(wall, cpu) if probed else None))
    trace = None
    if tracer is not None:
        tracer.restore()
        trace = tracer.summary()
    elif traced:
        trace = merge(r.trace for _, r, *_ in results if r is not None and r.trace)
    return Pass(sum(r[3] for r in results), traced, results, trace)


def check_pass(workload, p: Pass) -> list[str]:
    failures = []
    for name, result, error, *_ in p.results:
        if error is None:
            try:
                error = workload.check(name, result)
            except Exception:  # a check that cannot read an output fails the op
                error = traceback.format_exc()
        if error is not None:
            failures.append(f"{name}: {error.strip()}")
    return failures


def import_times() -> dict:
    """Cumulative import seconds of declift and scipy.optimize (median)."""
    found: dict[str, list[float]] = {"declift": [], "scipy.optimize": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import declift"],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in found:
            # a module that `import declift` no longer pulls in costs 0
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values) for name, values in found.items()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(peak_rss: float) -> dict:
    """The end-to-end metrics the worker measures itself; run.py adds the times."""
    return {"peak_rss_mib": _metric(peak_rss, "MiB")}


def per_layer_metrics(workload, passes: list[Pass], notes: list) -> dict:
    from tracer import counter_names, counter_unit, span_names
    from workloads import CliSession

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    missing = set().union(*(p.trace["missing"] for p in traced))
    counts = traced[0].trace["counts"]
    if any(p.trace["counts"] != counts for p in traced[1:]):
        notes.append(f"work counters differ between traced passes: {[p.trace['counts'] for p in traced]}")

    def layer(name, value, unit):
        if name in missing:
            return {"value": None, "unit": unit, "absent": True}
        return _metric(value, unit)

    metrics = {}
    for name in span_names():
        # the LP solver is a leaf span, so its self time is all of its time
        key = "solvers.linprog_s" if name == "solvers.linprog" else f"{name}.self_s"
        self_s = statistics.median(p.trace["self_s"].get(name, 0.0) for p in traced)
        metrics[key] = layer(name, self_s, "s")
    for name in counter_names():
        metrics[name] = layer(name, counts.get(name, 0), counter_unit(name))
    generated = counts.get("solvers.pomdp_generated", 0)
    # base: solvers.pomdp_generated; 0 when no plan pool was pruned
    keep = counts.get("solvers.pomdp_surviving", 0) / generated if generated else 0.0
    metrics["solvers.prune_keep_ratio"] = layer("solvers.pomdp_surviving", keep, "ratio")
    imports = import_times()
    metrics["import.declift_s"] = _metric(imports["declift"], "s")
    metrics["import.scipy_optimize_s"] = _metric(imports["scipy.optimize"], "s")
    # wall times of the untraced processes, so the tracer's own cost stays out
    for sub, _ in CliSession.COMMANDS:
        walls = [
            wall for p in plain for name, _, _, wall, *_ in p.results
            if name == sub and not workload.in_process
        ]
        metrics[f"cli.{sub}_s"] = _metric(statistics.median(walls) if walls else 0.0, "s")
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes: list[Pass] = []
    failures: list[str] = []
    attempted = 0
    measured = 0.0

    def another_pass():
        if len(passes) < MIN_PASSES:
            return True
        typical = statistics.median(p.wall_s for p in passes)
        return measured + typical / 2 < args.seconds

    def wait(share=None):
        # run.py calibrates, and at a pass's end samples set-up, meanwhile;
        # the share of the run measured so far spreads the samples evenly
        print("WAIT" if share is None else f"WAIT {share:.4f}", flush=True)
        sys.stdin.readline()

    wait()
    while another_pass():
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(
            workload, traced,
            between_ops=None if workload.in_process else wait,
            probed=workload.in_process and not args.trace,
        )
        passes.append(p)
        measured += p.wall_s
        attempted += len(p.results)
        if not workload.in_process:
            # the next pass overwrites the files these checks read
            failures += check_pass(workload, p)
        expected = max(args.seconds, MIN_PASSES * passes[0].wall_s)
        wait(min(1.0, measured / expected))
    # read before the in-process checks, whose references would count in it
    peak_rss = peak_rss_mib(workload)
    if workload.in_process:
        for p in passes:
            failures += check_pass(workload, p)

    notes = [workload.summary(), f"passes: {len(passes)}, pass walls: {[round(p.wall_s, 4) for p in passes]}"]
    if args.trace:
        metrics = per_layer_metrics(workload, passes, notes)
    else:
        metrics = end_to_end_metrics(peak_rss)
    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "notes": notes,
        "metrics": metrics,
        # per pass, per operation: wall and CPU seconds, and their scaled
        # values where the operation was probed (else null)
        "passes": [[[wall, cpu, probed] for *_, wall, cpu, probed in p.results] for p in passes],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
