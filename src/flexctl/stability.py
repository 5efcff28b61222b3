"""Lyapunov candidate, its discrete forward rate, the stability inequality
with its V1/V2 decomposition, the period boundary conditions, and grid
sweeps of the V1 margin over (h, |omega|).

Sign conventions: the decomposition is stated with A* = -A and F*_m = -F_m;
the public API works with A and F_m only and applies the stars internally.
V2 is a componentwise vector inequality; all three components are required
and the worst-component margin is reported so weaker readings stay possible.

The per-sample diagnostics (``v_prime``, ``check_conditions``) take the
sample's ``controller.law_terms``, the terms the control input is solved
from, and read the model, gains and target from them; ``stability_map``,
which builds its models, takes the whole SimConfig.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .controller import GainSet, LawTerms, check_period
from .discretizer import discretize_periods
from .plant import DIVERGENCE_LIMIT, DesiredState

if TYPE_CHECKING:
    from .simulator import SimConfig


class LyapunovSample(NamedTuple):
    """Diagnostics for one (state, input, period) sample."""

    V: float
    V_prime: float
    condition_main: bool      # V' <= 0
    V1_ok: bool
    V2_ok: bool
    boundary_low_ok: bool     # h -> 0 condition
    boundary_high_ok: bool    # h -> inf condition
    v1_margin: float          # V1 left-hand side (stable when <= 0)
    v2_margin: float          # max component of B u + A x (stable when <= 0)


@dataclass(frozen=True)
class StabilityGrid:
    """V1 margins over h (axis1) by |omega| (axis2)."""

    axis1_values: np.ndarray
    axis2_values: np.ndarray
    margins: np.ndarray  # shape (len(axis1), len(axis2)), V1 left-hand side

    def __post_init__(self):
        if self.margins.shape != (len(self.axis1_values), len(self.axis2_values)):
            raise ValueError("margins shape does not match the axes")

    def stable_count(self) -> int:
        return int(np.sum(self.margins <= 0.0))

    def write_csv(self, path) -> None:
        """One `axis1,axis2,V1_margin` row per cell, axis2 fastest, floats as repr."""
        axis1, axis2 = ([repr(v) for v in np.asarray(a, dtype=float).tolist()]
                        for a in (self.axis1_values, self.axis2_values))
        margins = np.asarray(self.margins, dtype=float).tolist()
        with Path(path).open("w", newline="") as f:
            f.write("axis1,axis2,V1_margin\n")
            for a1, row in zip(axis1, margins):
                f.writelines("%s,%s,%r\n" % (a1, a2, m) for a2, m in zip(axis2, row))


def lyapunov(omega: float, theta: float, d: DesiredState, E: float, gains: GainSet,
             k_E_used: float) -> float:
    """V = 0.5 k_E E^2 + 0.5 k_D (omega - omega_d)^2 + 0.5 k_P (theta - theta_d)^2."""
    return (0.5 * k_E_used * E * E
            + 0.5 * gains.k_D * (omega - d.omega_d) ** 2
            + 0.5 * gains.k_P * (theta - d.theta_d) ** 2)


def v_prime(terms: LawTerms, u: float, k_E_used: float) -> float:
    """Discrete forward Lyapunov rate.

    V' = k_E E_k [x^T D phi(A h)(A x + B u)]
         + (k_D/h)(omega - omega_d)(F_m x - omega)
         + k_P (theta - theta_d) omega
    """
    return terms.rate(k_E_used, terms.ax + terms.model.B * u)


def v1_margin(omega, theta, d: DesiredState, h, gains: GainSet, fmx):
    """Left-hand side of V1 (<= 0 required), from F_m x already formed:
    k_P (theta - theta_d) omega - (k_D/h)(omega - omega_d)(F*_m x - omega),
    with F*_m x = -F_m x. omega, h and fmx are floats or arrays that
    broadcast together (a whole grid)."""
    return (gains.k_P * (theta - d.theta_d) * omega
            - gains.k_D / h * (omega - d.omega_d) * (-fmx - omega))


def check_conditions(terms: LawTerms, u: float, k_E_used: float) -> LyapunovSample:
    """Evaluate every stability diagnostic at one sample from its law terms,
    which carry its model (A, B, Psi and the energy weights), gains and target."""
    omega, theta, d, gains = terms.omega, terms.theta, terms.d, terms.gains
    closed = terms.ax + terms.model.B * u   # B u + A x
    c0, c1, c2 = closed.tolist()
    # closed.max()/closed.min() on Python floats: the reversed order gives a tie of
    # 0.0 and -0.0 to the later component as numpy does, and a NaN goes to numpy
    hi, lo = ((max(c2, c1, c0), min(c2, c1, c0)) if c0 == c0 and c1 == c1 and c2 == c2
              else (float(closed.max()), float(closed.min())))
    Vp = terms.rate(k_E_used, closed)
    v1 = v1_margin(omega, theta, d, terms.model.h, gains, terms.fmx)
    low = gains.k_D * (omega - d.omega_d) * (terms.fmx - omega)

    return LyapunovSample(
        V=lyapunov(omega, theta, d, terms.E, gains, k_E_used),
        V_prime=Vp,
        condition_main=Vp <= 0.0,
        V1_ok=v1 <= 0.0,
        V2_ok=hi <= 0.0,             # every component of B u + A x <= 0
        boundary_low_ok=low <= 0.0,
        boundary_high_ok=lo >= 0.0,  # -A x <= B u componentwise
        v1_margin=v1,
        v2_margin=hi,
    )


def stability_map(cfg: SimConfig, h_values, omega_values) -> StabilityGrid:
    """V1 margin over an (h, |omega|) grid at cfg's initial current and angle.

    Every h must be at least the sampling floor EPS_H, and every omega finite
    and within +-DIVERGENCE_LIMIT, as every state of cfg is. All h rows are
    discretized in one stacked series evaluation (one ModelStack), and the
    whole grid is one `v1_margin`, so every cell has the bits of the margin
    `check_conditions` reports at that state.
    """
    h_values = np.asarray(h_values, dtype=float)
    omega_values = np.asarray(omega_values, dtype=float)
    if h_values.size == 0 or omega_values.size == 0:
        raise ValueError("grid axes must be non-empty")
    # false for NaN as well as for inf or a magnitude beyond the limit
    if not (np.abs(omega_values) <= DIVERGENCE_LIMIT).all():
        raise ValueError(f"omega values must be finite and within +-{DIVERGENCE_LIMIT:.0e}"
                         " (the divergence limit)")
    periods = h_values.tolist()
    for h in periods:
        check_period(h)

    # the states as a stack of 1x3 rows: matmul with the 3x1 column F_m then
    # rounds each F_m x as the 3-element product of law_terms does
    X = np.empty((omega_values.size, 1, 3))
    X[:, 0, 0] = cfg.initial.current_I
    X[:, 0, 1] = omega_values
    X[:, 0, 2] = cfg.initial.theta
    stack = discretize_periods(cfg.params, periods)
    fmx = np.matmul(X, stack.F[:, None, 1, :, None])[..., 0, 0]  # (h, omega)
    margins = v1_margin(omega_values, cfg.initial.theta, cfg.desired, stack.h[:, None],
                        cfg.gains, fmx)
    return StabilityGrid(axis1_values=h_values, axis2_values=omega_values, margins=margins)
