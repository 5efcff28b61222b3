"""Exact zero-order-hold discretization for one or many sampling periods.

One series evaluation Psi = phi(A h) gives F = e^(A h) = I + A h Psi and
G = h Psi B; ``discretize_periods`` takes the Psi of a whole list of periods
from one stacked phi. The model keeps Psi and the continuous pair (A, B) as
well, because the energy rate, the control law and the Lyapunov rate at
period h are all built on them; a caller that holds h fixed reuses the model
instead of discretizing again. There is no caching or interpolation over h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matseries import SeriesOptions, phi
from .plant import MotorParams, continuous_matrices

# smallest sampling period the controller accepts (the h -> 0 singularity floor)
DEFAULT_EPS_H = 1e-4


class SamplingTooSmallError(ValueError):
    """Raised when a requested period is below the sampling floor eps_h."""


@dataclass(frozen=True)
class DiscreteModel:
    """One-step model x[k+1] = F x[k] + G u[k] for period h, carried as
    (F, G, Psi, h) with Psi = phi(A h), the series value F and G come from,
    together with the continuous pair (A, B) the model was built from.

    Build it with ``discretize``, ``discretize_periods`` or ``discretize_lti``.
    """

    F: np.ndarray
    G: np.ndarray
    h: float
    psi: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be > 0, got {self.h}")
        for name in ("F", "G", "psi", "A", "B"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


def _zoh_models(A, B, periods: list[float], options: SeriesOptions | None) -> list[DiscreteModel]:
    """One model per period from one stacked Psi = phi(A h): F = I + Ah*Psi, G = h*Psi*B."""
    A = np.array(A, dtype=float)  # copies: the models carry A and B
    B = np.array(B, dtype=float)
    hs = np.array(periods, dtype=float)[:, None, None]
    Ah = A * hs
    ph = phi(Ah, options)
    F = np.eye(A.shape[0]) + Ah @ ph
    G = hs * ph @ B
    return [DiscreteModel(F=F[i], G=G[i], h=h, psi=ph[i], A=A, B=B)
            for i, h in enumerate(periods)]


def discretize_lti(A, B, h: float, options: SeriesOptions | None = None) -> DiscreteModel:
    """ZOH-discretize an arbitrary LTI pair: Psi = phi(Ah), F = I + Ah*Psi, G = h*Psi*B."""
    return _zoh_models(A, B, [h], options)[0]


def discretize_periods(p: MotorParams, periods, eps_h: float = DEFAULT_EPS_H,
                       options: SeriesOptions | None = None) -> list[DiscreteModel]:
    """Discrete motor models for a list of sampling periods (each >= eps_h),
    all from one stacked series evaluation; model i has the bits that
    ``discretize(p, periods[i])`` alone would give."""
    periods = list(periods)
    for h in periods:
        if h < eps_h:
            raise SamplingTooSmallError(f"h = {h} is below the sampling floor eps_h = {eps_h}")
    A, B = continuous_matrices(p)
    return _zoh_models(A, B, periods, options)


def discretize(p: MotorParams, h: float, eps_h: float = DEFAULT_EPS_H,
               options: SeriesOptions | None = None) -> DiscreteModel:
    """Discrete motor model for sampling period h (h >= eps_h enforced)."""
    return discretize_periods(p, [h], eps_h, options)[0]


def rotational_row(m: DiscreteModel) -> np.ndarray:
    """The omega row of F: F_m x[k] is the input-free one-step omega predictor."""
    return np.array(m.F[1])
