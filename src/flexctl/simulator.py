"""Closed-loop simulation: the period schedule drawn and discretized up
front, then per step the terms of the Lyapunov rate formed once
(``law_terms``), the gain retune and control input (``control_input``) and
the diagnostics (``check_conditions``) taken from those terms, the exact ZOH
state update and a divergence check on the new state.

The discrete update x[k+1] = F x[k] + G u[k] is the exact zero-order-hold
solution, so no ODE solver is involved in a run. ``rk4_crosscheck`` is a
validation-only path that re-integrates the continuous model with a fine
fixed-step RK4 under the same piecewise-constant input and reports the
worst relative deviation at the sample instants. With the input held, one
RK4 step is an exact affine map, so the substeps of a period are applied as
one matrix power of that map; it uses neither ``phi`` nor ``expm`` and so
stays independent of the path it checks.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .controller import GUARD_EVENTS, GainSet, control_input, law_terms
from .discretizer import discretize_periods
from .plant import DIVERGENCE_LIMIT, DesiredState, MotorParams, PlantState, continuous_matrices
from .scheduler import Scheduler, ScheduleSpec
from .stability import check_conditions

TRACE_COLUMNS = ("k", "t", "h_k", "I", "omega", "theta", "u", "E", "k_E",
                 "V", "V_prime", "saturated", "guard_event", "V1_ok", "V2_ok", "cond_main")


class DivergenceError(RuntimeError):
    """State magnitude exceeded DIVERGENCE_LIMIT; carries the partial trace."""

    def __init__(self, message: str, trace: list["TraceRecord"]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SimConfig:
    params: MotorParams = MotorParams()
    gains: GainSet = GainSet()
    desired: DesiredState = DesiredState()
    initial: PlantState = PlantState(current_I=0.4, omega=5.0, theta=0.1)
    schedule: ScheduleSpec = ScheduleSpec()
    duration: float = 10.0

    def __post_init__(self):
        # an infinite horizon would draw periods without end
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        for group in ("initial", "desired"):
            for name, value in vars(getattr(self, group)).items():
                if not abs(value) <= DIVERGENCE_LIMIT:
                    raise ValueError(f"{group}.{name} must be within +-{DIVERGENCE_LIMIT:.0e}"
                                     f" (the divergence limit), got {value}")


class TraceRecord(NamedTuple):
    """One simulation step; field order matches the trace CSV columns."""

    k: int
    t: float
    h_k: float
    I: float
    omega: float
    theta: float
    u: float
    E: float
    k_E: float
    V: float
    V_prime: float
    saturated: bool
    guard_event: str
    V1_ok: bool
    V2_ok: bool
    cond_main: bool


def run(cfg: SimConfig) -> list[TraceRecord]:
    """Simulate until the clock reaches cfg.duration; returns the full trace.

    The period sequence does not depend on the state, so it is drawn in
    full first, with the clock accumulating h as the steps will. Each
    distinct period, plus h_s for phi(A h_s), is then discretized once,
    all in one stacked series evaluation and one ModelStack, before the
    first step; each distinct period maps to its view of the stack. Input
    threading is strictly sequential: u_prev feeds the gain retune of the
    next step and starts at 0 V.
    """
    sched = Scheduler(cfg.schedule)
    periods = []
    t = 0.0
    while t < cfg.duration:
        h = sched.next_period()
        periods.append(h)
        t += h
    distinct = list(dict.fromkeys(periods))
    stack = discretize_periods(cfg.params, distinct + [cfg.gains.h_s])
    models = dict(zip(distinct, stack))
    psi_s = stack.psi[-1]

    x0 = cfg.initial
    xv = x0.as_array()
    I, omega, theta = x0.current_I, x0.omega, x0.theta
    u_prev = 0.0
    t = 0.0
    records: list[TraceRecord] = []
    for k, h in enumerate(periods):
        model = models[h]
        terms = law_terms(xv, cfg.desired, model, cfg.gains)
        out = control_input(terms, u_prev, psi_s)
        sample = check_conditions(terms, out.u, out.k_E_used)
        records.append(TraceRecord(
            k=k, t=t, h_k=h, I=I, omega=omega, theta=theta,
            u=out.u, E=terms.E, k_E=out.k_E_used,
            V=sample.V, V_prime=sample.V_prime,
            saturated=out.saturated, guard_event=out.guard_event,
            V1_ok=sample.V1_ok, V2_ok=sample.V2_ok, cond_main=sample.condition_main,
        ))
        xv = model.F @ xv + model.G * out.u
        I, omega, theta = xv.tolist()
        # false for NaN as well as for inf or a magnitude beyond the limit
        if not (abs(I) <= DIVERGENCE_LIMIT and abs(omega) <= DIVERGENCE_LIMIT
                and abs(theta) <= DIVERGENCE_LIMIT):
            raise DivergenceError(
                f"state magnitude exceeded {DIVERGENCE_LIMIT:.0e} at t = {t + h:.6f} s", records)
        u_prev = out.u
        t += h
    return records


def schedule_hash(trace: list[TraceRecord]) -> str:
    """SHA-256 of the period sequence, for pairing runs on a shared schedule."""
    return hashlib.sha256(np.array([r.h_k for r in trace]).tobytes()).hexdigest()


@dataclass(frozen=True)
class ComparisonSummary:
    final_theta_err_dynamic: float
    final_omega_err_dynamic: float
    final_theta_err_constant: float
    final_omega_err_constant: float
    schedule_hash: str


@dataclass(frozen=True)
class ComparisonResult:
    dynamic: list[TraceRecord]
    constant: list[TraceRecord]
    summary: ComparisonSummary


def with_gain_mode(cfg: SimConfig, gain_mode: str) -> SimConfig:
    """cfg with only the gain mode changed, so both modes share one schedule."""
    return replace(cfg, gains=replace(cfg.gains, gain_mode=gain_mode))


def pair_gain_modes(cfg: SimConfig, dynamic: list[TraceRecord],
                    constant: list[TraceRecord]) -> ComparisonResult:
    """The comparison of a dynamic and a constant trace of cfg's schedule."""
    d = cfg.desired
    summary = ComparisonSummary(
        final_theta_err_dynamic=abs(dynamic[-1].theta - d.theta_d),
        final_omega_err_dynamic=abs(dynamic[-1].omega - d.omega_d),
        final_theta_err_constant=abs(constant[-1].theta - d.theta_d),
        final_omega_err_constant=abs(constant[-1].omega - d.omega_d),
        schedule_hash=schedule_hash(dynamic),
    )
    return ComparisonResult(dynamic=dynamic, constant=constant, summary=summary)


def compare_gain_modes(cfg: SimConfig) -> ComparisonResult:
    """Run dynamic and constant gain modes on the identical period sequence."""
    return pair_gain_modes(cfg, run(with_gain_mode(cfg, "dynamic")),
                           run(with_gain_mode(cfg, "constant")))


# the column types; the annotations themselves are strings under
# `from __future__ import annotations`
_COLUMN_TYPES = get_type_hints(TraceRecord)
# one row of the trace CSV: floats in round-trip precision (repr), k and the
# booleans as integers (1/0), guard_event as its name
_ROW_FORMAT = ",".join({int: "%d", float: "%r", bool: "%d", str: "%s"}[_COLUMN_TYPES[name]]
                       for name in TraceRecord._fields) + "\n"


def write_trace_csv(trace: list[TraceRecord], path) -> None:
    """Write a trace with the exact column contract in TRACE_COLUMNS.

    Floats use round-trip decimal precision, booleans are 1/0, and
    guard_event is the event name, so identical traces produce identical
    bytes.
    """
    with Path(path).open("w", newline="") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        f.writelines(_ROW_FORMAT % r for r in trace)


def _parse_flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {raw!r}")
    return raw == "1"


def _parse_event(raw: str) -> str:
    if raw not in GUARD_EVENTS:
        raise ValueError(f"expected one of {', '.join(GUARD_EVENTS)}, got {raw!r}")
    return raw


# guard_event is the one str column
_CELL_PARSERS = {int: int, float: float, bool: _parse_flag, str: _parse_event}


def read_trace_csv(path) -> list[TraceRecord]:
    """Inverse of write_trace_csv. A cell the writer never produces (a flag
    other than 0/1, an unknown guard event, a malformed number) raises
    ValueError naming its line and column, and a row of the wrong length
    one naming its line."""
    converters = {name: _CELL_PARSERS[kind] for name, kind in _COLUMN_TYPES.items()}
    records = []
    with Path(path).open(newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header: {reader.fieldnames}")
        for row in reader:
            # DictReader keys extra cells by None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(TRACE_COLUMNS)} cells")
            values = {}
            for name, conv in converters.items():
                try:
                    values[name] = conv(row[name])
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: line {reader.line_num}, column {name}: {exc}") from None
            records.append(TraceRecord(**values))
    return records


def rk4_crosscheck(cfg: SimConfig, trace: list[TraceRecord], t_end: float | None = None,
                   dt: float = 1e-5) -> float:
    """Max relative deviation between the ZOH trace and a fine RK4 re-integration.

    The continuous model is integrated with fixed-step RK4 (n = ceil(h_k/dt)
    equal substeps of size s = h_k/n per period) under the trace's logged
    piecewise-constant input, and compared against the logged state at every
    sample instant up to t_end.

    With f = B u held, one RK4 step of x' = A x + f is exactly x -> R x + Q f,
    where S = s A, R = sum_{j<=4} S^j/j! and Q = s sum_{j<=3} S^j/(j+1)!.
    The augmented matrix T = [[R, Q f], [0, 1]] acts on [x; 1], so the n
    substeps of a period are T^n, taken by repeated squaring.

    Returns inf once the RK4 state is no longer finite (dt outside RK4's
    stability interval for the plant's fastest pole). Raises ValueError
    unless dt is finite and > 0.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    A, B = continuous_matrices(cfg.params)
    eye = np.eye(3)
    x = np.append(cfg.initial.as_array(), 1.0)
    worst = 0.0
    for rec, nxt in zip(trace[:-1], trace[1:]):
        if t_end is not None and nxt.t > t_end:
            break
        n = int(np.ceil(rec.h_k / dt))
        step = rec.h_k / n
        S = step * A
        P = eye + S @ (eye / 2.0 + S @ (eye / 6.0 + S / 24.0))  # Q / s
        T = np.eye(4)
        T[:3, :3] = eye + S @ P
        T[:3, 3] = step * (P @ (B * rec.u))
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.linalg.matrix_power(T, n) @ x
        if not np.all(np.isfinite(x)):
            return float("inf")
        logged = np.array([nxt.I, nxt.omega, nxt.theta])
        err = np.max(np.abs(logged - x[:3])) / max(np.max(np.abs(x[:3])), 1e-12)
        worst = max(worst, float(err))
    return worst
