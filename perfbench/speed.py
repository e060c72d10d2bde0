"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core can drift by 2x: a 2-vCPU KVM guest
(Xeon, Python 3.11) alternated between two speeds over seconds to minutes,
which would swamp any change to ellgen.  A fixed pure-Python kernel is
therefore timed between jobs, and every time the benchmark reports is scaled
to the speed at which that kernel takes ``REFERENCE_S``: "reference-speed"
seconds.  Host drift scales job and kernel alike and cancels; a change to
ellgen moves only the job.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0015  # kernel time at reference speed: the slower of those two speeds
EVERY_S = 0.05  # probe again before a job once this much wall time has passed


def kernel() -> Fraction:
    """Rational sums and small-dict updates: the same interpreter work as ellgen."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[i % 61] = table.get(i % 61, 0) + i * i
    return acc


def probe() -> float:
    """Median wall time of three kernel runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds, given the probes around a span."""
    return 2.0 * REFERENCE_S / (before + after)


class SpeedLog:
    """Probes interleaved with the jobs of one loop."""

    def __init__(self) -> None:
        self.samples = []  # (index of the job the probe precedes, kernel seconds)
        self._last = float("-inf")

    def probe(self, index: int) -> None:
        self.samples.append((index, probe()))
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= EVERY_S

    def latest_scale(self) -> float:
        return REFERENCE_S / self.samples[-1][1]

    def scales(self, count: int) -> list[float]:
        """Scale of jobs 0..count-1, from the probes just before and just after each."""
        out = []
        s = self.samples
        k = 0
        for i in range(count):
            while k + 1 < len(s) and s[k + 1][0] <= i:
                k += 1
            after = s[k + 1][1] if k + 1 < len(s) else s[k][1]
            out.append(scale(s[k][1], after))
        return out
