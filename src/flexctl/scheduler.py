"""Deterministic, seeded sampling-period sequences within [h_min, h_max].

The generator is pinned to numpy's PCG64 bit generator seeded through
SeedSequence(seed), so a (spec, call index) pair maps to the same period on
every platform and run. Modes:

* ``fixed``        every step uses h_min
* ``per_step``     fresh uniform draw each step
* ``random_hold``  uniform draw held for a uniform random number of steps,
                   giving the piecewise-constant staircase of a schedule
                   that switches at random instants
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import EPS_H

MODES = ("random_hold", "per_step", "fixed")


@dataclass(frozen=True)
class ScheduleSpec:
    h_min: float = 0.05
    h_max: float = 0.2
    seed: int = 0
    hold_max: int = 10
    mode: str = "random_hold"

    def __post_init__(self):
        if not EPS_H <= self.h_min <= self.h_max < math.inf:
            raise ValueError(
                f"need eps_h <= h_min <= h_max < inf, got h_min={self.h_min}, h_max={self.h_max}")
        # the hold length is drawn as an int64 below hold_max + 1
        if not 1 <= self.hold_max <= 2**63 - 1:
            raise ValueError(f"hold_max must be in [1, 2**63 - 1], got {self.hold_max}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


class Scheduler:
    """Single-owner period source; strictly sequential within one run."""

    def __init__(self, spec: ScheduleSpec):
        self.spec = spec
        self._rng = np.random.Generator(np.random.PCG64(spec.seed))
        self._held_period = 0.0
        self._remaining = 0

    def next_period(self) -> float:
        spec = self.spec
        if spec.mode == "fixed":
            return spec.h_min
        if spec.mode == "per_step":
            return float(self._rng.uniform(spec.h_min, spec.h_max))
        if self._remaining == 0:
            self._held_period = float(self._rng.uniform(spec.h_min, spec.h_max))
            self._remaining = int(self._rng.integers(1, spec.hold_max + 1))
        self._remaining -= 1
        return self._held_period
