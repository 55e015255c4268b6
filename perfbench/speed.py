"""Host-speed probe that puts operation times on a common scale.

On a shared 2-core Xeon VM the speed of the host changes by up to +-20%
over tens of seconds.  The means of 20-second windows of one repeated,
unchanged operation spread by 0.14 to 0.19 (interquartile range over
median), in CPU time as much as in wall time.  Whole 28-second runs of
free-certify, which takes no random input, spread by 0.24.

A timer signal therefore runs a fixed pure-Python reference slice
(small-integer matrix products and Fraction sums, the arithmetic of the
workloads) every INTERVAL_S seconds in the benchmark's one thread, and
records how long it took.  An operation's time, minus the slices that ran
inside it, is scaled by NOMINAL_SLICE_S over the mean slice time around it:
seconds at the host speed where a slice takes NOMINAL_SLICE_S.  On the same
VM this brought the spread of 20-second window means from 0.19 to 0.09, and
that of five 28-second matrix-interval runs from 0.20 (raw) to 0.05
(scaled).  Raw times are recorded next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
NOMINAL_SLICE_S = 2.5e-4
MIN_SLICES = 16
WARMUP_SLICES = 20

_A = ((3, -2, 1), (2, 0, -1), (1, 1, 2))


def reference_slice():
    p = _A
    for _ in range(12):
        p = tuple(tuple(sum(r[t] * _A[t][j] for t in range(3)) for j in range(3)) for r in p)
        p = tuple(tuple(x % 97 for x in r) for r in p)
    f = Fraction(0)
    for k in range(1, 12):
        f += Fraction(p[k % 3][k % 2], k)
    return f


class SpeedProbe:
    """Context manager that samples the reference slice while active."""

    def __init__(self):
        self.slices = []

    def _tick(self, signum, frame):
        # a collection triggered inside the slice would be the operation's
        # garbage, not host speed
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_slice()
        self.slices.append(perf_counter() - t0)
        if enabled:
            gc.enable()

    def __enter__(self):
        for _ in range(WARMUP_SLICES):
            reference_slice()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (raw seconds, scaled seconds, result).

        Raw seconds exclude the slices that ran inside the call.  The
        scale uses the slices inside the call, widened to the last
        MIN_SLICES slices when the call was short.
        """
        n0 = len(self.slices)
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        inside = self.slices[n0:]
        raw = wall - sum(inside)
        around = self.slices[min(n0, len(self.slices) - MIN_SLICES):] or [NOMINAL_SLICE_S]
        return raw, raw * NOMINAL_SLICE_S * len(around) / sum(around), out
