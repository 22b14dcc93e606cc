"""Machine-speed calibration for the end-to-end times.

The benchmark's machine is shared, and its speed drifts by 20 % and more
over seconds to minutes (see NOTES.md): a fixed pure-Python loop drifts
as much as the solvers do.  So every timed interval is scaled by the
speed of a fixed kernel, a probe, measured as close to the interval as
the benchmark can get:

- an operation that runs in the worker process is probed while it runs:
  one probe just before it, then one every PROBE_INTERVAL_S from a
  SIGALRM timer (`Prober`).  The probes that interrupt it are taken out
  of its time;
- an operation that runs in a child process (a CLI command) cannot be
  interrupted that way.  The worker waits before and after it, and each
  time the launcher runs a slice of SLICE_PROBES probes; the operation is
  scaled by the mean of the slices within WINDOW_S of it, its own two and
  those of its neighbours.  A child process's speed follows the slices
  right next to it less closely than an in-process operation follows its
  probes, so the wider mean is steadier;
- a set-up is scaled by the slices just before and just after it.

A probe is a memoised recursion over tuple keys, with dicts, sorting,
integer binomials and float sums, in the style of the solvers' hot
loops.  The kernel is the benchmark's own and never calls declift, so no
change to the program can change what a probe costs.  A time is scaled
to a machine on which one probe takes REFERENCE_S seconds:

    scaled = measured * REFERENCE_S / mean probe time
"""

from __future__ import annotations

import itertools
import math
import signal
import time

# seconds one probe takes on the reference machine (about what it takes
# on the 2-core machine the benchmark was built on)
REFERENCE_S = 0.01
SLICE_PROBES = 10
WINDOW_S = 5.0
# 4 to 6 % of an in-process operation's time goes to probes
PROBE_INTERVAL_S = 0.25


def _kernel() -> float:
    memo: dict = {}

    def value(state, depth):
        if depth == 0:
            return 0.0
        key = (depth, state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0.0
        for a, b in itertools.product(range(4), repeat=2):
            child = tuple(sorted(((x * 7 + a + b * i) % 11, c) for i, (x, c) in enumerate(state)))
            total += (a + 1) * 0.1 * math.comb(len(state) + a, a) * value(child, depth - 1)
        return memo.setdefault(key, total + 1.0)

    return value(((0, 1), (0, 2)), 5)


def probe() -> tuple[float, float]:
    """Run the kernel once; return its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - wall, time.process_time() - cpu


def slice_seconds() -> tuple[float, float]:
    """Mean (wall, CPU) seconds of SLICE_PROBES probes run back to back."""
    probes = [probe() for _ in range(SLICE_PROBES)]
    return (
        sum(wall for wall, _ in probes) / SLICE_PROBES,
        sum(cpu for _, cpu in probes) / SLICE_PROBES,
    )


def scaled(seconds: float, probe_seconds: float) -> float:
    """`seconds` measured where a probe took `probe_seconds`, on the reference machine."""
    return seconds * REFERENCE_S / probe_seconds


class Prober:
    """Probes one operation of this process while it runs (a context manager)."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        self.probes = [probe()]  # just before the operation, outside its time
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """The operation's (wall, CPU) seconds less the probes inside it, scaled."""
        inside, n = self.probes[1:], len(self.probes)
        return (
            scaled(wall - sum(w for w, _ in inside), sum(w for w, _ in self.probes) / n),
            scaled(cpu - sum(c for _, c in inside), sum(c for _, c in self.probes) / n),
        )
