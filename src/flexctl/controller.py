"""Energy-based control input with singularity guards, saturation, and the
per-period dynamic retuning of the energy gain k_E.

The control law is the unique input that zeroes the discrete Lyapunov rate
V' at the current sample; the guards handle its two singularities (period
floor and near-zero stored energy) plus a numerically vanishing denominator.
The law reads the motor from the period's DiscreteModel alone (Psi, A, B
and the energy weights), so no motor parameters are passed beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discretizer import DiscreteModel
from .plant import DesiredState

GAIN_MODES = ("dynamic", "constant")
# the guard events a control output reports, "none" first
GUARD_EVENTS = ("none", "energy_floor", "denominator_floor", "gain_fallback")

# smallest sampling period the program accepts (the h -> 0 singularity floor) [s]
EPS_H = 1e-4
EPS_C = 1e-6        # stored-energy floor [J]
EPS_DEN = 1e-9      # control-law denominator floor
EPS_EPRIME = 1e-9   # energy-rate floor in the gain-retune rule [W]
K_E_MAX = 1e6       # upper clamp for the retuned gain


class SamplingTooSmallError(ValueError):
    """Raised when a period is below the sampling floor EPS_H."""


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
        for name in ("k_E_s", "k_P", "k_D", "h_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0 <= self.K_c < math.inf:
            raise ValueError(f"K_c must be finite and >= 0, got {self.K_c}")
        # an infinite u_sat is a run without saturation
        if not self.u_sat > 0:
            raise ValueError(f"u_sat must be > 0, got {self.u_sat}")
        if self.gain_mode not in GAIN_MODES:
            raise ValueError(f"gain_mode must be one of {GAIN_MODES}, got {self.gain_mode!r}")


class ControlOutput(NamedTuple):
    u: float
    k_E_used: float
    saturated: bool
    guard_event: str


class LawTerms(NamedTuple):
    """One sample: its period's model, gains and target, and the pieces of the
    discrete Lyapunov rate V' at its state, formed once by ``law_terms`` from
    the matrices and weights the model carries; the control input and every
    diagnostic of the sample are read from them."""

    model: DiscreteModel
    gains: GainSet
    d: DesiredState
    omega: float     # the state's speed and angle
    theta: float
    xd: np.ndarray   # x^T D
    E: float         # stored energy 0.5 x^T D x
    ax: np.ndarray   # A x
    w: np.ndarray    # x^T D Psi, Psi = model.psi
    fmx: float       # F_m x, the input-free omega prediction
    t_D: float       # (k_D/h)(omega - omega_d)(F_m x - omega)
    t_P: float       # k_P (theta - theta_d) omega

    def rate(self, k_E: float, v: np.ndarray) -> float:
        """k_E E (w . v) + t_D + t_P: V' at input u for v = A x + B u, and
        its input-free part for v = A x."""
        return k_E * self.E * float(self.w @ v) + self.t_D + self.t_P


def law_terms(x: np.ndarray, d: DesiredState, model: DiscreteModel, gains: GainSet) -> LawTerms:
    """The terms at the state vector x = [I, omega, theta]
    (``PlantState.as_array()``)."""
    _, omega, theta = x.tolist()
    xd = x * model.weights  # equals x^T D to the bit; w is (x^T D) Psi, never x^T (D Psi)
    fmx = float(model.F[1] @ x)
    return LawTerms(
        model=model, gains=gains, d=d,
        omega=omega,
        theta=theta,
        xd=xd,
        E=0.5 * float(xd @ x),
        ax=model.A @ x,
        w=xd @ model.psi,
        fmx=fmx,
        t_D=gains.k_D / model.h * (omega - d.omega_d) * (fmx - omega),
        t_P=gains.k_P * (theta - d.theta_d) * omega,
    )


def check_period(h: float) -> None:
    """Raise SamplingTooSmallError for a period below the floor EPS_H."""
    if h < EPS_H:
        raise SamplingTooSmallError(f"h = {h} is below the sampling floor eps_h = {EPS_H}")


def _gain_with_event(terms: LawTerms, u_prev: float, psi_s: np.ndarray) -> tuple[float, bool]:
    """Per-period energy gain k_E(h_k) = k_E_s * E'(h_s)/E'(h_k) + K_c, plus a
    flag for the |E'(h_k)| floor fallback.

    Both energy rates are evaluated at the current state with the previous
    input, which keeps the rule causal: E'(h) = x^T D Psi (A x + B u_prev)
    with Psi = model.psi at h_k and Psi_s = phi(A h_s) at h_s. The result is
    clamped to [K_c, K_E_MAX]; when |E'(h_k)| is below EPS_EPRIME the
    standard gain is returned. In constant mode it is k_E_s.
    """
    gains = terms.gains
    if gains.gain_mode == "constant":
        return gains.k_E_s, False
    v = terms.ax + terms.model.B * u_prev
    e_rate_k = float(terms.w @ v)
    if abs(e_rate_k) < EPS_EPRIME:
        return gains.k_E_s, True
    e_rate_s = float(terms.xd @ psi_s @ v)
    raw = gains.k_E_s * e_rate_s / e_rate_k + gains.K_c
    return float(min(max(raw, gains.K_c), K_E_MAX)), False


def control_input(terms: LawTerms, u_prev: float, psi_s: np.ndarray) -> ControlOutput:
    """Control voltage for the sample whose ``law_terms`` are given, always
    within +-u_sat of the terms' gains.

    The terms' model is the only source of the motor: every term at h_k uses
    its Psi, A, B and energy weights, and the retune takes psi_s = phi(A h_s)
    for the standard period. ``k_E_used`` is the retuned gain (k_E_s in
    constant mode). A period below EPS_H raises SamplingTooSmallError.

    Guard events (one is reported, in this precedence):
      energy_floor      E_k <= EPS_C, system is essentially at rest -> u = 0
      denominator_floor |den| < EPS_DEN -> hold the previous input
      gain_fallback     retune ratio undefined, standard gain used instead
    """
    model = terms.model
    check_period(model.h)
    k_E, fallback = _gain_with_event(terms, u_prev, psi_s)
    if terms.E <= EPS_C:
        return ControlOutput(u=0.0, k_E_used=k_E, saturated=False, guard_event="energy_floor")

    u_sat = terms.gains.u_sat
    den = k_E * terms.E * float(terms.w @ model.B)
    if abs(den) < EPS_DEN:
        u = float(min(max(u_prev, -u_sat), u_sat))
        return ControlOutput(u=u, k_E_used=k_E, saturated=abs(u_prev) > u_sat,
                             guard_event="denominator_floor")

    u_raw = -terms.rate(k_E, terms.ax) / den
    u = float(min(max(u_raw, -u_sat), u_sat))
    return ControlOutput(u=u, k_E_used=k_E, saturated=abs(u_raw) > u_sat,
                         guard_event="gain_fallback" if fallback else "none")
