"""Benchmark entry point for declift.

Usage, from the root of a declift checkout:

    python3 bench/run.py --workload desk-h3|swarm-h2|cli-session \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: one process running one
operation at a time.  This launcher starts bench/worker.py with a pinned
environment (BLAS threads 1, PYTHONHASHSEED 0, bytecode caching on, the
checkout's src first on PYTHONPATH), times set-up from the worker's start
to its READY line, and prints the worker's notes and, as the last line,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (pass_s, cpu_s,
setup_s, peak_rss_mib).  Their times are scaled to a reference machine
speed (calibration.py): an operation in the worker process by probes
that interrupt it, a CLI operation by the calibration slices this
launcher runs near it, while the worker waits.
Set-up is measured SETUP_SAMPLES times, once in the measuring worker and
in further workers that stop at READY, run while the measuring worker
waits at the end of a pass; each is scaled by the slices on either side
of it, and the median is reported.  With --trace 1 the metrics are the
per-layer ones, unscaled.  The launcher exits non-zero, printing no
result, when the checkout has no declift sources or a worker does not
finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("desk-h3", "swarm-h2", "cli-session")
SETUP_SAMPLES = 9
DEADLINE_S = 170
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _environment(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    # imports read cached bytecode, as they do for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args, root: Path, env: dict, workdir: Path, deadline: float, setup_only: bool,
               on_wait=None):
    """Run one worker; return (set-up seconds, its stdout lines after READY).

    The measuring worker waits where worker.py says, having printed WAIT
    and, at the end of a pass, the share of the run it has measured;
    `on_wait(share or None)` runs then.
    """
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = []
        for line in proc.stdout:
            if line.startswith("WAIT"):
                share = line.split()[1:]
                if on_wait is not None:
                    on_wait(float(share[0]) if share else None)
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                rest.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with code {code} (first line {first.strip()!r})")
    return setup_s, rest


class Calibrated:
    """Calibration slices at a measuring worker's waits and around set-ups."""

    def __init__(self, start_worker):
        self.start_worker = start_worker  # runs a set-up-only worker, returns its set-up seconds
        self.slices = []  # (start time, wall s, CPU s) per probe of every slice, in order
        self.waits = []  # index in slices of the slice at each wait of the worker
        self.setups = []  # scaled set-up seconds
        self._slice()  # before the measuring worker starts

    def _slice(self):
        self.slices.append((time.perf_counter(), *calibration.slice_seconds()))
        return self.slices[-1]

    def sample_setup(self):
        """Measure one set-up, between the latest slice and a new one."""
        before = self.slices[-1][1]
        setup_s = self.start_worker()
        self.setups.append(calibration.scaled(setup_s, (before + self._slice()[1]) / 2))

    def on_wait(self, share):
        self._slice()
        self.waits.append(len(self.slices) - 1)
        if share is not None:
            # set-up-only workers, spread over the passes so that the
            # median spans the run rather than one end of it
            self.fill_setups(math.ceil((SETUP_SAMPLES - 1) * share))

    def fill_setups(self, due):
        while len(self.setups) < due:
            self.sample_setup()

    def around(self, k):
        """Mean (wall, CPU) per probe of the slices within WINDOW_S of operation k.

        Operation k ran between the worker's waits k and k + 1.
        """
        start, end = self.slices[self.waits[k]][0], self.slices[self.waits[k + 1]][0]
        near = [s for s in self.slices if start - calibration.WINDOW_S <= s[0] <= end + calibration.WINDOW_S]
        return statistics.mean(s[1] for s in near), statistics.mean(s[2] for s in near)

    def pass_seconds(self, passes):
        """Scaled (wall, CPU) seconds of each pass, summed over its operations.

        A probed operation comes scaled from the worker; any other one is
        scaled by the slices around it (the worker waits around each).
        """
        ops = [op for ops in passes for op in ops]
        if any(op[2] is None for op in ops) and len(ops) != len(self.waits) - 1:
            raise BenchError("the worker's operations do not match its waits")
        out, k = [], 0
        for ops in passes:
            wall = cpu = 0.0
            for op_wall, op_cpu, op_scaled in ops:
                if op_scaled is None:
                    probe_wall, probe_cpu = self.around(k)
                    op_scaled = (calibration.scaled(op_wall, probe_wall), calibration.scaled(op_cpu, probe_cpu))
                wall += op_scaled[0]
                cpu += op_scaled[1]
                k += 1
            out.append((wall, cpu))
        return out


def end_to_end_metrics(worker_metrics: dict, passes: list, setups: list) -> dict:
    """The worker's own metrics plus the scaled medians of pass and set-up times."""
    return dict(
        worker_metrics,
        pass_s={"value": statistics.median(wall for wall, _ in passes), "unit": "s"},
        cpu_s={"value": statistics.median(cpu for _, cpu in passes), "unit": "s"},
        setup_s={"value": statistics.median(setups), "unit": "s"},
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "declift" / "__init__.py").is_file():
        print("error: run from the root of a declift checkout; src/declift is missing", file=sys.stderr)
        return 2
    env = _environment(root)
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        cal = None if args.trace else Calibrated(
            lambda: run_worker(args, root, env, workdir, deadline, setup_only=True)[0]
        )
        setup_s, lines = run_worker(
            args, root, env, workdir, deadline, setup_only=False,
            on_wait=None if cal is None else cal.on_wait,
        )
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchError("the worker printed no result") from None
        if cal is not None:
            # the measuring worker's own set-up: between the slice taken
            # before it started and the one at its first wait
            first, at_wait = cal.slices[0][1], cal.slices[cal.waits[0]][1]
            cal.setups.insert(0, calibration.scaled(setup_s, (first + at_wait) / 2))
            cal.fill_setups(SETUP_SAMPLES)
            scaled = cal.pass_seconds(report["passes"])
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for line in lines[:-1] + report["notes"]:
        print(line)
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    metrics = report["metrics"]
    if cal is not None:
        metrics = end_to_end_metrics(metrics, scaled, cal.setups)
        raw = [sum(op[0] for op in ops) for ops in report["passes"]]
        print(f"scaled pass walls (s): {[round(w, 4) for w, _ in scaled]}")
        print(f"scaled set-ups (s): {[round(s, 4) for s in cal.setups]}")
        print(f"unscaled median pass wall {statistics.median(raw):.4f} s, "
              f"median probe {statistics.median(s[1] for s in cal.slices):.5f} s in the launcher's slices "
              f"(reference {calibration.REFERENCE_S} s)")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
