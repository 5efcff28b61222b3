"""Machine-speed calibration.

On a shared host the speed of the same code drifts by tens of percent over
minutes (other tenants contend for the cores' caches and execution units),
and any code running at the same moment slows by about the same share. So
every timing the benchmark reports is rescaled: the wall time of an
operation is divided by the mean wall time of a fixed kernel timed just
before and just after it, then multiplied by the kernel's reference time.
The result is the operation's time at the reference speed, in the same unit.

The kernel does what flexctl's inner loops do, with code of its own: small
float64 matrix products, elementwise numpy calls on 3-vectors, float
conversion and ``repr``. It does not import flexctl, so a change to the
program does not change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# about the median wall time of one kernel call on the 2-core x86-64 host
# this benchmark was defined on (numpy 2.4, OpenBLAS 0.3.31); a fixed
# constant, so it only sets the scale of the reported times
REFERENCE_S = 6.0e-3
# time the kernel again once this much operation time has passed, so short
# operations share one kernel time and long ones each get their own
EVERY_S = 0.05

_A = np.array([[-1300.0, -500.0, 0.0], [125.0, -10.0, -100.0], [0.0, 1.0, 0.0]])


def kernel() -> int:
    x = np.array([0.4, 5.0, 0.1])
    acc = 0.0
    parts = []
    for k in range(300):
        T = np.eye(3) + _A * ((0.05 + 1e-4 * k) / 1024.0)
        for _ in range(3):
            T = T @ T
        x = T @ x
        x = x / max(float(np.max(np.abs(x))), 1.0)
        acc += float(x @ x)
        parts.append(repr(acc))
    return len(",".join(parts))


class Calibration:
    """Kernel times taken between operations, and the scaling they give."""

    def __init__(self):
        self.samples: list[float] = []
        self.since = EVERY_S

    def refresh(self, force: bool = False, repeats: int = 1) -> None:
        """Time the kernel if EVERY_S has passed (or `force`); keeps the median of `repeats`."""
        if not (force or self.since >= EVERY_S):
            return
        times = []
        for _ in range(repeats):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.since = 0.0

    def mark(self, elapsed: float) -> int:
        """Record an operation of `elapsed` wall seconds; returns the kernel sample before it."""
        self.since += elapsed
        return len(self.samples) - 1

    def scale(self, walls: list[float], marks: list[int]) -> list[float]:
        """Wall seconds -> seconds at reference speed, bracketing each operation."""
        self.refresh(force=True)
        return [wall * REFERENCE_S * 2.0 / (self.samples[m] + self.samples[m + 1])
                for wall, m in zip(walls, marks)]
