"""Machine-speed reference for the benchmark's timings.

On the 2-vCPU virtual machine on a shared host where this benchmark was
written, the same code runs at speeds that differ by up to 2x, in phases
that last from milliseconds to minutes.  No run length that fits the
benchmark's time budget averages that out: over ten seeds, the
interquartile range over the median of raw times was 0.13-0.70 across
the workloads.

``Speed`` times a fixed pure-Python reference loop between operations.
It shares no code with ``lgsteer`` and imports nothing, so it also runs
before the package is imported.  A time measured while the loop takes
``r`` seconds is reported at the reference speed: multiplied by
``NOMINAL_S / r``, with ``r`` the median of the samples taken around the
timed operation.  A change to ``lgsteer`` does not change the loop, so it moves
the reported times in full; a change of machine speed moves both and
cancels.  The raw times are printed on the run's summary line.
"""

from __future__ import annotations

import bisect
import statistics
import time

# one sample of the reference loop took about this long on that machine
# (Python 3.11.7) when the benchmark was written; times are scaled to it
NOMINAL_S = 0.0025
_LOOP = 12000


def _reference_loop() -> float:
    acc, x = 0.0, 1.0
    for i in range(_LOOP):
        x = (x * 1.0000001 + i) % 97.0
        acc += x if i & 1 else -x
    return acc


class Speed:
    """Reference-loop samples taken between timed operations."""

    def __init__(self, period_s: float = 0.2) -> None:
        self.period_s = period_s
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = -float("inf")

    def sample(self, n: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(n):
            t0 = time.perf_counter()
            _reference_loop()
            self.samples.append(time.perf_counter() - t0)
            self.times.append(t0)
        self._last = time.perf_counter()
        self.spent_s += self._last - start

    def tick(self) -> None:
        """Sample once if ``period_s`` has passed since the last sample."""
        if time.perf_counter() - self._last >= self.period_s:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median sample taken from ``period_s`` before
        ``t0`` to ``period_s`` after ``t1``, or over the three samples
        nearest to that span when it holds fewer."""
        lo = bisect.bisect_left(self.times, t0 - self.period_s)
        hi = bisect.bisect_right(self.times, t1 + self.period_s)
        if hi - lo < 3:
            mid = 0.5 * (t0 + t1)
            k = bisect.bisect_left(self.times, mid)
            window = range(max(0, k - 3), min(len(self.times), k + 3))
            near = sorted(window, key=lambda i: abs(self.times[i] - mid))[:3]
            return NOMINAL_S / statistics.median(self.samples[i] for i in near)
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
