"""Exact zero-order-hold discretization of the motor for one or many
sampling periods.

One series evaluation Psi = phi(A h) gives F = e^(A h) = I + A h Psi and
G = h Psi B; ``discretize_periods`` takes the Psi of a whole list of periods
from one stacked phi and returns them as one ``ModelStack``, checked once.
A model keeps Psi and the continuous pair (A, B) as well, because the energy
rate, the control law and the Lyapunov rate at period h are all built on
them; a caller that holds h fixed reuses the model instead of discretizing
again. There is no caching or interpolation over h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matseries import DEFAULT_TOL, phi
from .plant import MotorParams, continuous_matrices, energy_weights


class DiscreteModel(NamedTuple):
    """One-step model x[k+1] = F x[k] + G u[k] for period h > 0, carried as
    (F, G, Psi, h) with Psi = phi(A h), the series value F and G come from,
    together with the continuous pair (A, B) and the diagonal ``weights`` of
    the energy weight D = diag(L, J, K_L) of the motor it was built from.

    It is one period of a ``ModelStack`` (``stack[i]``, or ``discretize``)
    and is not checked again. The sampling floor EPS_H is the controller's,
    not the model's.
    """

    F: np.ndarray
    G: np.ndarray
    h: float
    psi: np.ndarray
    A: np.ndarray
    B: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class ModelStack:
    """The models of k periods: F (k, 3, 3), G (k, 3), psi (k, 3, 3) and
    h (k,), with the continuous pair (A, B) and the energy weights they
    share. Every h must be > 0 and every array finite; each is checked once
    here. ``stack[i]`` is the DiscreteModel of period i."""

    F: np.ndarray
    G: np.ndarray
    psi: np.ndarray
    h: np.ndarray
    A: np.ndarray
    B: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        positive = self.h > 0
        if not positive.all():
            raise ValueError(f"h must be > 0, got {self.h[~positive][0]}")
        for name in ("F", "G", "psi", "A", "B", "weights"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, i: int) -> DiscreteModel:
        # h as a Python float: an np.float64 h would make the law's terms np.float64,
        # which the trace CSV would print as np.float64(...)
        return DiscreteModel(self.F[i], self.G[i], float(self.h[i]), self.psi[i],
                             self.A, self.B, self.weights)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def discretize_periods(p: MotorParams, periods, tol: float = DEFAULT_TOL) -> ModelStack:
    """Discrete motor models for a list of sampling periods, all from one
    stacked Psi = phi(A h): F = I + Ah*Psi, G = h*Psi*B. Model i has the
    bits that ``discretize(p, periods[i])`` alone would give."""
    A, B = continuous_matrices(p)
    h = np.array(list(periods), dtype=float)
    hs = h[:, None, None]
    # phi reports a non-finite A h (an infinite h makes 0 * inf a NaN), and
    # ModelStack an infinite F or G
    with np.errstate(over="ignore", invalid="ignore"):
        Ah = A * hs
        ph = phi(Ah, tol)
        F = np.eye(A.shape[0]) + Ah @ ph
        G = hs * ph @ B
    return ModelStack(F=F, G=G, psi=ph, h=h, A=A, B=B, weights=energy_weights(p))


def discretize(p: MotorParams, h: float) -> DiscreteModel:
    """Discrete motor model for sampling period h."""
    return discretize_periods(p, [h])[0]
