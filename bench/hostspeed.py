"""Scaling measured times to a reference host speed.

The benchmark's host shares its cores with other machines, and its speed
swings between two or more levels, by up to 1.8x, over periods from a
fraction of a second to minutes.  A `Sampler` times a tiny fixed probe
(`probe`) from a SIGALRM handler every PERIOD_S while it is active, so
the host's speed is known at every moment of the run, also in the middle
of a long operation.  A time t taken over [start, end] is then reported
as t * REF_S / p, where p is the mean probe time over that interval
(or over the MIN_SAMPLES samples nearest to it, for a short interval),
trimmed of its lowest and highest tenth.
REF_S is the probe's time on a quiet 2-vCPU Xeon VM with CPython 3.11,
so on that host the scaled times are wall times.

The probe is a polynomial product over Z and a sum of fractions, the
kind of pure-Python arithmetic ellspec does, written here so that no
change to ellspec affects it.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.005
MIN_SAMPLES = 9
TRIM = 0.1
REF_S = 30e-6

_F = [(-1) ** k * (3 ** (k + 9) + k) for k in range(10)]
_G = [(-1) ** (k // 2) * (7 ** (k + 5) - k) for k in range(10)]


def probe() -> float:
    """Seconds taken by the fixed probe."""
    start = time.perf_counter()
    h = [0] * (len(_F) + len(_G) - 1)
    for i, a in enumerate(_F):
        for j, b in enumerate(_G):
            h[i + j] += a * b
    sum(Fraction(c, k + 2) for k, c in enumerate(h[:8]))
    return time.perf_counter() - start


def trimmed_mean(values) -> float:
    """Mean of the values without the lowest and highest TRIM of them.  A
    mean, not a median, because the host may switch speed during an
    interval, and the interval's time grows with the mean slowdown; the
    trim drops probes that an interrupt happened to hit."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k : len(ordered) - k])


class Sampler:
    """Probe the host every PERIOD_S of wall time while inside `with`."""

    def __init__(self):
        self.at = array("d")  # perf_counter at each probe
        self.took = array("d")  # probe time
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()  # the first run refills the caches the interrupted code used
        self.at.append(start)
        self.took.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """REF_S over the trimmed mean probe time during [start, end],
        widened to the MIN_SAMPLES nearest samples when fewer fell inside."""
        at, n = self.at, len(self.at)
        i, j = bisect_left(at, start), bisect_right(at, end)
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            if i > 0 and (j >= n or start - at[i - 1] <= at[j] - end):
                i -= 1
            else:
                j += 1
        if i == j:
            return 1.0
        return REF_S / trimmed_mean(self.took[i:j])

    def speed(self) -> float:
        """REF_S over the median probe time of the whole run."""
        return REF_S / statistics.median(self.took) if self.took else 1.0
