"""A fixed reference loop that tracks how fast the machine runs code like the library's.

Timings on a shared host drift by tens of percent within a minute, because
the cores slow down and speed up with other tenants' load. The benchmark
times this loop every ``EVERY_S`` seconds, between operations. Each timing
is scaled by ``NOMINAL_S / reference``, the reference measured around it.
That is the time the operation would have taken at the reference's nominal
speed. The loop is the integer mixing and dict updates of
``BinHash.match``'s inner loop, written out here, so no library change can
alter it.
"""
from __future__ import annotations

from bisect import bisect_right
from statistics import median
from time import perf_counter

EVERY_S = 0.25
NOMINAL_S = 0.00125  # about the loop's median on a 2.1 GHz Xeon vCPU under Python 3.11
_MASK64 = (1 << 64) - 1


def _loop() -> float:
    best: dict[int, int] = {}
    t0 = perf_counter()
    for x in range(1, 2001):
        v = (x * 0x9E3779B97F4A7C15) & _MASK64 ^ 0x5DEECE66D
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
        b = (v ^ (v >> 31)) % 97
        cur = best.get(b)
        if cur is None or x < cur:
            best[b] = x
    return perf_counter() - t0


class SpeedLog:
    """Reference timings taken between operations, and the scale they give each interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        self.refs.append(median(_loop() for _ in range(3)))
        self.times.append(perf_counter())

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the mean of the samples just before ``t0`` and just after ``t1``."""
        before = max(bisect_right(self.times, t0) - 1, 0)
        after = min(bisect_right(self.times, t1), len(self.times) - 1)
        return NOMINAL_S / ((self.refs[before] + self.refs[after]) / 2)

    def factor(self) -> float:
        """How much slower than nominal the machine ran, as the median over the run."""
        return median(self.refs) / NOMINAL_S
