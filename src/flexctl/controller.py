"""Energy-based control input with singularity guards, saturation, and the
per-period dynamic retuning of the energy gain k_E.

The control law is the unique input that zeroes the discrete Lyapunov rate
V' at the current sample; the guards handle its two singularities (period
floor and near-zero stored energy) plus a numerically vanishing denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretizer import DEFAULT_EPS_H, DiscreteModel, SamplingTooSmallError, rotational_row
from .matseries import phi
from .plant import DesiredState, MotorParams, PlantState, continuous_matrices, energy, energy_matrix, energy_rate_psi

GAIN_MODES = ("dynamic", "constant")

# guard_event values, in precedence order when several could apply
GUARD_EVENTS = ("none", "energy_floor", "denominator_floor", "gain_fallback")


@dataclass(frozen=True)
class GainSet:
    """Controller gains; defaults are the reference tuning."""

    k_E_s: float = 725.0    # energy gain at the standard period
    k_P: float = 565.0
    k_D: float = 0.07
    K_c: float = 610.0      # additive constant of the gain-retune rule
    h_s: float = 0.11       # standard sampling period [s]
    u_sat: float = 45.0     # input saturation [V]
    gain_mode: str = "dynamic"

    def __post_init__(self):
        for name in ("k_E_s", "k_P", "k_D", "u_sat", "h_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.K_c < 0:
            raise ValueError(f"K_c must be >= 0, got {self.K_c}")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"gain_mode must be one of {GAIN_MODES}, got {self.gain_mode!r}")


@dataclass(frozen=True)
class GuardSet:
    """Singularity floors and clamps, all configurable."""

    eps_h: float = DEFAULT_EPS_H  # sampling-period floor [s]
    eps_c: float = 1e-6           # stored-energy floor [J]
    eps_den: float = 1e-9         # control-law denominator floor
    eps_Eprime: float = 1e-9      # energy-rate floor in the gain-retune rule [W]
    k_E_max: float = 1e6          # upper clamp for the retuned gain

    def __post_init__(self):
        for name in ("eps_h", "eps_c", "eps_den", "eps_Eprime", "k_E_max"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ControlOutput:
    u: float
    k_E_used: float
    saturated: bool
    guard_event: str


def standard_psi(gains: GainSet, p: MotorParams) -> np.ndarray:
    """Psi_s = phi(A h_s), the series value behind E'(h_s); fixed for a run."""
    A, _ = continuous_matrices(p)
    return phi(A * gains.h_s)


def _gain_with_event(x: PlantState, u_prev: float, psi_k: np.ndarray, psi_s: np.ndarray | None,
                     gains: GainSet, guards: GuardSet, p: MotorParams) -> tuple[float, bool]:
    """Retuned gain from Psi_k = phi(A h_k) and Psi_s = phi(A h_s) (built here
    when None), plus a flag for the |E'(h_k)| floor fallback."""
    if gains.gain_mode == "constant":
        return gains.k_E_s, False
    e_rate_k = energy_rate_psi(x, u_prev, psi_k, p)
    if abs(e_rate_k) < guards.eps_Eprime:
        return gains.k_E_s, True
    if psi_s is None:
        psi_s = standard_psi(gains, p)
    e_rate_s = energy_rate_psi(x, u_prev, psi_s, p)
    raw = gains.k_E_s * e_rate_s / e_rate_k + gains.K_c
    return float(min(max(raw, gains.K_c), guards.k_E_max)), False


def dynamic_gain(x: PlantState, u_prev: float, h_k: float, gains: GainSet,
                 guards: GuardSet, p: MotorParams) -> float:
    """Per-period energy gain k_E(h_k) = k_E_s * E'(h_s)/E'(h_k) + K_c.

    Both energy rates are evaluated at the current state with the previous
    input, which keeps the rule causal. The result is clamped to
    [K_c, k_E_max]; when |E'(h_k)| is below the floor the standard gain is
    returned unchanged. In constant mode this is simply k_E_s.
    """
    if not h_k > 0:
        raise ValueError(f"h_k must be > 0, got {h_k}")
    A, _ = continuous_matrices(p)
    gain, _ = _gain_with_event(x, u_prev, phi(A * h_k), None, gains, guards, p)
    return gain


def control_input(x: PlantState, d: DesiredState, model: DiscreteModel, gains: GainSet,
                  guards: GuardSet, p: MotorParams, u_prev: float,
                  psi_s: np.ndarray | None = None) -> ControlOutput:
    """Control voltage for the current sample, always within +-u_sat.

    Every term at h_k uses model.psi; ``psi_s`` is ``standard_psi(gains, p)``
    for a caller that holds it across steps, and is built on demand otherwise.

    Guard events (one is reported, in this precedence):
      energy_floor      E_k <= eps_c, system is essentially at rest -> u = 0
      denominator_floor |den| < eps_den -> hold the previous input
      gain_fallback     retune ratio undefined, standard gain used instead
    """
    h_k = model.h
    if h_k < guards.eps_h:
        raise SamplingTooSmallError(f"h = {h_k} is below the sampling floor eps_h = {guards.eps_h}")

    k_E, fallback = _gain_with_event(x, u_prev, model.psi, psi_s, gains, guards, p)
    E_k = energy(x, p)
    if E_k <= guards.eps_c:
        return ControlOutput(u=0.0, k_E_used=k_E, saturated=False, guard_event="energy_floor")

    A, B = continuous_matrices(p)
    xv = x.as_array()
    w = xv @ energy_matrix(p) @ model.psi  # row vector x^T D phi(A h)
    den = k_E * E_k * float(w @ B)
    if abs(den) < guards.eps_den:
        u = float(np.clip(u_prev, -gains.u_sat, gains.u_sat))
        return ControlOutput(u=u, k_E_used=k_E, saturated=abs(u_prev) > gains.u_sat,
                             guard_event="denominator_floor")

    f_m = rotational_row(model)
    num = (k_E * E_k * float(w @ (A @ xv))
           + gains.k_D / h_k * (x.omega - d.omega_d) * (float(f_m @ xv) - x.omega)
           + gains.k_P * (x.theta - d.theta_d) * x.omega)
    u_raw = -num / den
    u = float(np.clip(u_raw, -gains.u_sat, gains.u_sat))
    return ControlOutput(u=u, k_E_used=k_E, saturated=abs(u_raw) > gains.u_sat,
                         guard_event="gain_fallback" if fallback else "none")
