"""Exact zero-order-hold discretization of the motor for one or many
sampling periods.

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

from .matseries import DEFAULT_TOL, phi
from .plant import MotorParams, continuous_matrices, energy_weights


@dataclass(frozen=True)
class DiscreteModel:
    """One-step model x[k+1] = F x[k] + G u[k] for period h > 0, carried as
    (F, G, Psi, h) with Psi = phi(A h), the series value F and G come from,
    together with the continuous pair (A, B) and the diagonal ``weights`` of
    the energy weight D = diag(L, J, K_L) of the motor it was built from.

    Build it with ``discretize`` or ``discretize_periods``. The sampling
    floor EPS_H is the controller's, not the model's.
    """

    F: np.ndarray
    G: np.ndarray
    h: float
    psi: np.ndarray
    A: np.ndarray
    B: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"h must be > 0, got {self.h}")
        for name in ("F", "G", "psi", "A", "B", "weights"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")


def discretize_periods(p: MotorParams, periods, tol: float = DEFAULT_TOL) -> list[DiscreteModel]:
    """Discrete motor models for a list of sampling periods, all from one
    stacked Psi = phi(A h): F = I + Ah*Psi, G = h*Psi*B. Model i has the
    bits that ``discretize(p, periods[i])`` alone would give."""
    periods = list(periods)
    A, B = continuous_matrices(p)
    weights = energy_weights(p)
    hs = np.array(periods, dtype=float)[:, None, None]
    # phi reports an infinite A h, and DiscreteModel an infinite F or G
    with np.errstate(over="ignore"):
        Ah = A * hs
        ph = phi(Ah, tol)
        F = np.eye(A.shape[0]) + Ah @ ph
        G = hs * ph @ B
    return [DiscreteModel(F=F[i], G=G[i], h=h, psi=ph[i], A=A, B=B, weights=weights)
            for i, h in enumerate(periods)]


def discretize(p: MotorParams, h: float) -> DiscreteModel:
    """Discrete motor model for sampling period h."""
    return discretize_periods(p, [h])[0]

