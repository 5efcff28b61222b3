"""DC motor with elastic load: continuous-time model, stored energy, and
the discrete forward energy rate.

State ordering is x = [I, omega, theta] (armature current, shaft angular
velocity, shaft angle). Two model fidelities are supported:

* ``corrected`` (default): the standard motor model; theta integrates omega
  and positive input voltage drives positive current.
* ``paper_literal``: keeps the published coefficient layout, whose theta row
  is the decoupled divergence d(theta)/dt = theta and whose input sign is
  inverted. Retained for auditability; closed-loop runs with it diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matseries import phi

FIDELITIES = ("corrected", "paper_literal")


@dataclass(frozen=True)
class MotorParams:
    """Physical constants; defaults are the reference motor used throughout."""

    R: float = 1.3          # armature resistance [ohm]
    L: float = 1e-3         # armature inductance [H]
    K_b: float = 0.5        # back-EMF constant [V s/rad]
    K_m: float = 0.5        # torque constant [N m/A]
    J: float = 0.004        # combined motor+load inertia [kg m^2]
    B_f: float = 0.04       # combined viscous friction [N m s/rad]
    K_L: float = 0.4        # elastic load stiffness [N/m]
    fidelity: str = "corrected"

    def __post_init__(self):
        for name in ("R", "L", "K_b", "K_m", "J", "B_f", "K_L"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.fidelity not in FIDELITIES:
            raise ValueError(f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}")


@dataclass(frozen=True)
class PlantState:
    current_I: float
    omega: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.current_I) and math.isfinite(self.omega)
                and math.isfinite(self.theta)):
            raise ValueError("state entries must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.current_I, self.omega, self.theta])

    @staticmethod
    def from_array(x) -> "PlantState":
        I, omega, theta = (float(v) for v in x)
        return PlantState(current_I=I, omega=omega, theta=theta)


@dataclass(frozen=True)
class DesiredState:
    theta_d: float = 2.0
    omega_d: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.theta_d, self.omega_d])):
            raise ValueError("desired state entries must be finite")


def continuous_matrices(p: MotorParams) -> tuple[np.ndarray, np.ndarray]:
    """Build (A, B) for dx/dt = A x + B u under the selected fidelity."""
    A = np.array([
        [-p.R / p.L, -p.K_b / p.L, 0.0],
        [p.K_m / p.J, -p.B_f / p.J, -p.K_L / p.J],
        [0.0, 1.0, 0.0],
    ])
    B = np.array([1.0 / p.L, 0.0, 0.0])
    if p.fidelity == "paper_literal":
        A[2] = [0.0, 0.0, 1.0]
        B[0] = -1.0 / p.L
    return A, B


def energy_weights(p: MotorParams) -> np.ndarray:
    """The diagonal d = (L, J, K_L) of the energy weight D; x^T D is exactly x * d."""
    return np.array([p.L, p.J, p.K_L])


def energy(x: PlantState, p: MotorParams) -> float:
    """Stored (kinetic + potential) energy E = 0.5 x^T D x, in joules."""
    xv = x.as_array()
    return 0.5 * float(xv * energy_weights(p) @ xv)


def energy_rate(x: PlantState, u: float, h: float, p: MotorParams) -> float:
    """Discrete forward energy rate E' = x^T D phi(A h)(A x + B u).

    h*E' is the first-order part of the energy change over one sample of
    length h under the exact zero-order-hold step.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    A, B = continuous_matrices(p)
    xv = x.as_array()
    return float(xv * energy_weights(p) @ phi(A * h) @ (A @ xv + B * u))
