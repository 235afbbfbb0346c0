"""Times rescaled to a reference interpreter speed.

Interpreter speed on shared hosts drifts by a third over tens of seconds,
as much in CPU time as in wall time.  Every timed stretch is bracketed by
a fixed spin loop, and its time is rescaled to the speed at which spin()
takes REFERENCE_SPIN_S.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_SPIN_S = 1e-3


def spin() -> None:
    d: dict = {}
    for i in range(6000):
        d[i & 63] = (i, d.get((i * 7) & 63))


def spin_seconds() -> float:
    """Median of three spins: steadier than the minimum against short stalls."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        spin()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrated:
    """Times a stretch of work, rescaled by the spins just before and after it."""

    def __init__(self) -> None:
        self.before = spin_seconds()

    def measure(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.raw = time.perf_counter() - t0
            after = spin_seconds()
            self.factor = 2 * REFERENCE_SPIN_S / (self.before + after)
            self.scaled = self.raw * self.factor
            self.before = after
