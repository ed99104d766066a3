"""Correction of wall times for contention on a shared host.

On a shared host a CPU-bound client slows down by up to about 1.9x, in
stretches that last from milliseconds to tens of seconds, and its process CPU
time slows down with it, so neither the best nor the median of a few samples
per call is steady from one run to the next.  The benchmark therefore times a
fixed probe (exact ``Fraction`` arithmetic, the same kind of work as totneg's
kernels, run with the garbage collector off so the program's heap does not
weigh on it) before the first call and after every call.  A call's corrected
time is its wall time times ``PROBE_REF_MS`` divided by the mean probe time
within ``WINDOW_MS`` of the call: its wall time on a core on which the probe
takes ``PROBE_REF_MS``.  Probe time is never part of a call's time.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

#: Probe time of an uncontended core of the 2-vCPU host the benchmark was tuned
#: on (the fastest probes there take 0.39-0.41 ms).  Every corrected time is
#: expressed at this probe speed, so results of one machine compare with each
#: other; the constant only sets the scale.
PROBE_REF_MS = 0.40
#: Probes taken up to this long before a call starts or after it ends count
#: towards its contention; the probes right before and after always count.
WINDOW_MS = 200.0


def _probe_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return total


def now_ms() -> float:
    return time.perf_counter_ns() / 1e6


class Probes:
    """The probe times of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each probe, in now_ms() time
        self.ms: list[float] = []

    def take(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            _probe_kernel()
            end = time.perf_counter_ns()
        finally:
            if enabled:
                gc.enable()
        self.at.append(start / 1e6)
        self.ms.append((end - start) / 1e6)

    def correct(self, start_ms: float, wall_ms: float) -> float:
        """Wall time ``wall_ms`` of work that started at ``start_ms``, corrected for contention."""
        nearest = bisect.bisect_left(self.at, start_ms)
        lo = min(bisect.bisect_left(self.at, start_ms - WINDOW_MS), max(nearest - 1, 0))
        hi = max(bisect.bisect_right(self.at, start_ms + wall_ms + WINDOW_MS), min(nearest + 1, len(self.at)))
        window = self.ms[lo:hi]
        return wall_ms * PROBE_REF_MS * len(window) / sum(window)
