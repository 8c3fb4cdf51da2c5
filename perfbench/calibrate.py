"""Reference-speed time: wall time rescaled by a calibration kernel.

The machines this benchmark runs on share cores with other jobs, and their
speed drifts by tens of percent within seconds.  While a ``SpeedSampler``
is active, a SIGALRM handler times a fixed kernel of the same kind of work
as the library (small ``Fraction`` arithmetic and tuples) every
``INTERVAL_S`` of wall time, also in the middle of long items.  An interval
of wall time, less the time the handler took inside it, is reported as
``busy * REFERENCE_S / k``, where ``k`` is the median kernel time sampled
during the interval and ``WINDOW_S`` around it, so every time reads as if the kernel took exactly
``REFERENCE_S``.  Raw wall times are printed on standard error alongside.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Kernel time that defines the reference speed: about its fastest time with
# CPython 3.11 on a shared Intel Xeon virtual machine.
REFERENCE_S = 250e-6
INTERVAL_S = 0.02
# Samples up to this far outside an interval also rescale it.
WINDOW_S = 0.1


def kernel() -> int:
    acc = 0
    for i in range(1, 60):
        a = Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, i + 2)
        acc += a.numerator % 7
    return acc + len(tuple((k, 2 * k) for k in range(40)))


class SpeedSampler:
    """Samples the kernel's time from a wall-clock timer while active.

    ``mark`` starts an interval and ``interval`` ends it; ``reference``
    converts a finished interval once the sampler has exited.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.kernels.append(end - start)
        self.stolen += end - start

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.stolen

    def interval(self, mark) -> tuple[float, float, float]:
        """(start, end, busy wall seconds outside the handler) since ``mark``."""
        end = time.perf_counter()
        start, stolen = mark
        return start, end, end - start - (self.stolen - stolen)

    def factor(self, start: float, end: float) -> float:
        """Multiplier from wall seconds in [start, end] to reference seconds.

        Uses the kernels sampled from ``WINDOW_S`` before ``start`` to
        ``WINDOW_S`` after ``end``, and at least the nearest sample on each
        side.
        """
        times = self.times
        lo = min(bisect.bisect_left(times, start - WINDOW_S), bisect.bisect_left(times, start) - 1)
        hi = max(bisect.bisect_right(times, end + WINDOW_S), bisect.bisect_right(times, end) + 1)
        return REFERENCE_S * statistics.fmean(1.0 / k for k in self.kernels[max(0, lo):hi])

    def reference(self, interval) -> float:
        start, end, busy = interval
        return busy * self.factor(start, end)
