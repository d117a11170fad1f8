"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same op can take 20-40 % longer from one minute to
the next, with CPU time tracking wall time: the processor itself runs
slower, the process is not descheduled.  A fixed exact-arithmetic loop,
timed next to the ops, measures that drift; dividing each timing by the
loop's slowdown against ``REFERENCE_S`` reports it in reference seconds,
the time it would have taken on a machine where the loop takes exactly
``REFERENCE_S``.  The loop uses only the standard library, so no change to
kinkeq can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0008  # the loop's time on the machine the bounds were set on
INTERVAL_S = 0.05  # recalibrate when the last calibration is older than this


def _loop() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * i + 1, 2 * i + 3) * Fraction(i, 7)
        acc -= acc.numerator // acc.denominator
    return time.perf_counter() - start


class Clock:
    """Slowdown of this machine against the reference, kept current."""

    def __init__(self):
        self._factor = 1.0
        self._when = float("-inf")

    def factor(self, force: bool = False) -> float:
        """Current slowdown (> 1: slower than the reference); the best of two
        loop timings, remeasured once ``INTERVAL_S`` has passed."""
        now = time.perf_counter()
        if force or now - self._when >= INTERVAL_S:
            self._factor = min(_loop(), _loop()) / REFERENCE_S
            self._when = time.perf_counter()
        return self._factor
