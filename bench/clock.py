"""Wall time scaled to the host's speed.

The host this benchmark was written on runs the same Python code up to 1.6x
slower for seconds at a time, as other tenants load it, and raw wall times
spread by 12-26% between runs.  While it is running, the clock times a fixed
reference loop every EVERY_S of wall time, from a timer signal, so samples
fall inside long operations too.  An operation's reference time is its wall
time minus the samples inside it, each stretch between two samples scaled by
NOMINAL_S over their mean duration: wall time at the speed where the
reference loop takes NOMINAL_S.  The reference loop is the benchmark's own
code, so between commits only the program's work moves these times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

NOMINAL_S = 0.001     # the reference loop's time at the reference speed
EVERY_S = 0.025       # wall time between two reference samples


def reference_work() -> int:
    """Allocation, hashing and sorting in the mix the pipeline does."""
    table = {}
    for i in range(3000):
        table[(i % 97, "node", i // 97)] = [i, (i, i + 1)]
    return len(sorted(table.items(), key=lambda kv: (kv[1][0] * 7) % 1000))


class HostClock:
    """Use as a context manager; reference() converts intervals taken inside."""

    def __init__(self):
        self._starts = []
        self._ends = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_timer(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        """Time the reference loop once."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()          # a collection of the program's heap is not host speed
        try:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self._starts.append(start)
        self._ends.append(end)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the program's work in [start, end]; call it
        after a sample that began after ``end``."""
        before = max(0, bisect.bisect_right(self._ends, start) - 1)
        after = min(len(self._starts) - 1, bisect.bisect_left(self._starts, end))
        total = 0.0
        edge = start
        for k in range(before, after):
            # the stretch from sample k (or the interval start) to sample k + 1
            stop = min(self._starts[k + 1], end)
            duration = ((self._ends[k] - self._starts[k])
                        + (self._ends[k + 1] - self._starts[k + 1])) / 2
            total += max(0.0, stop - edge) * NOMINAL_S / duration
            edge = max(edge, self._ends[k + 1])
        if before == after:   # no sample after the interval: use the last one
            total = (end - start) * NOMINAL_S / (self._ends[before] - self._starts[before])
        return total

    def median_sample(self) -> float:
        """The reference loop's median time: how fast the host ran."""
        return statistics.median(e - s for s, e in zip(self._starts, self._ends))

    def scale(self, start: float, end: float) -> float:
        """Mean factor from wall to reference time over [start, end]."""
        return self.reference(start, end) / (end - start)
