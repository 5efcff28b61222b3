import ast
import copy
import csv
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from flexctl import cli, discretizer, simulator
from flexctl.controller import EPS_H, GainSet, control_input, law_terms
from flexctl.discretizer import discretize, discretize_periods
from flexctl.matseries import phi
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices, energy,
                           energy_rate, energy_weights)
from flexctl.scheduler import Scheduler, ScheduleSpec
from flexctl.simulator import (DivergenceError, SimConfig, TraceRecord, compare_gain_modes,
                               read_trace_csv, rk4_crosscheck, run, schedule_hash,
                               write_trace_csv, TRACE_COLUMNS)
from flexctl.stability import check_conditions


def nominal_config(seed=1, **kwargs):
    return SimConfig(schedule=ScheduleSpec(seed=seed), **kwargs)


def test_rest_at_origin_is_fixed_point():
    cfg = SimConfig(desired=DesiredState(theta_d=0.0),
                    initial=PlantState(0.0, 0.0, 0.0),
                    schedule=ScheduleSpec(seed=3), duration=2.0)
    trace = run(cfg)
    for r in trace:
        assert (r.I, r.omega, r.theta) == (0.0, 0.0, 0.0)
        assert r.u == 0.0
        assert r.guard_event == "energy_floor"


def test_determinism_same_seed():
    assert run(nominal_config(seed=5)) == run(nominal_config(seed=5))


def test_time_bookkeeping():
    trace = run(nominal_config(seed=2))
    assert trace[0].t == 0.0
    t_end = 0.0
    for prev, nxt in zip(trace[:-1], trace[1:]):
        assert nxt.t == pytest.approx(prev.t + prev.h_k, abs=1e-12)
    for r in trace:
        t_end += r.h_k
    assert t_end == pytest.approx(trace[-1].t + trace[-1].h_k, abs=1e-12)
    assert t_end >= 10.0


def test_input_always_bounded():
    trace = run(nominal_config(seed=7))
    assert all(abs(r.u) <= 45.0 for r in trace)


def test_energy_column_consistent_with_state():
    p = MotorParams()
    for r in run(nominal_config(seed=4)):
        assert r.E == pytest.approx(energy(PlantState(r.I, r.omega, r.theta), p), abs=1e-12)


# Roundings on the way to one ledger residual: h*E' takes 12 (A x + B u,
# Psi times that, x^T D times that, times h), dx takes 10 (F = I + Ah Psi and
# G = h Psi B, F x + G u, minus x), E_k and E_{k+1} take 4 each, and the
# residual itself 3.
LEDGER_ROUNDINGS = 12 + 10 + 4 + 4 + 3


@pytest.mark.parametrize("gain_mode", ["dynamic", "constant"])
def test_energy_ledger_holds_on_every_step(gain_mode):
    # dx = h Psi (A x + B u) makes E_{k+1} - E_k = h E' + dx^T D dx / 2 exact;
    # the bound is absolute because parked steps have dE at round-off
    p = MotorParams()
    d = energy_weights(p)
    eps = np.finfo(float).eps
    for seed in range(1, 11):
        trace = run(nominal_config(seed=seed, gains=GainSet(gain_mode=gain_mode)))
        for r, nxt in zip(trace[:-1], trace[1:]):
            x = PlantState(r.I, r.omega, r.theta)
            dx = np.array([nxt.I, nxt.omega, nxt.theta]) - x.as_array()
            h_rate = r.h_k * energy_rate(x, r.u, r.h_k, p)
            quad = 0.5 * float(dx * d @ dx)
            residual = (nxt.E - r.E) - (h_rate + quad)
            scale = abs(r.E) + abs(nxt.E) + abs(h_rate) + quad
            assert abs(residual) <= LEDGER_ROUNDINGS * eps * scale, (seed, r.k, residual, scale)


def test_fixed_standard_period_gain_identity():
    cfg = SimConfig(schedule=ScheduleSpec(h_min=0.11, h_max=0.11, mode="fixed", seed=0))
    trace = run(cfg)
    rows = [r for r in trace if r.guard_event != "gain_fallback"]
    assert rows
    for r in rows:
        assert r.k_E == pytest.approx(1335.0, abs=1e-9)


def test_schedule_range_respected():
    trace = run(nominal_config(seed=9))
    assert all(0.05 <= r.h_k <= 0.2 for r in trace)


def test_compare_gain_modes_structure():
    result = compare_gain_modes(nominal_config(seed=6))
    s = result.summary
    assert s.final_theta_err_dynamic >= 0.0
    assert s.final_theta_err_constant >= 0.0
    assert s.final_omega_err_dynamic >= 0.0
    assert s.final_omega_err_constant >= 0.0
    assert [r.h_k for r in result.dynamic] == [r.h_k for r in result.constant]
    assert s.schedule_hash == schedule_hash(result.dynamic) == schedule_hash(result.constant)
    assert len(s.schedule_hash) == 64


def test_paper_literal_fidelity_diverges_with_report():
    cfg = SimConfig(params=MotorParams(fidelity="paper_literal"),
                    schedule=ScheduleSpec(seed=1), duration=30.0)
    with pytest.raises(DivergenceError) as excinfo:
        run(cfg)
    partial = excinfo.value.trace
    assert len(partial) > 10
    assert all(np.isfinite([r.I, r.omega, r.theta]).all() for r in partial)


def test_divergence_not_triggered_within_short_horizon_paper_literal():
    # the decoupled theta row grows like e^t from 0.1 rad; the 1e9 magnitude
    # guard cannot fire within a 10 s horizon
    cfg = SimConfig(params=MotorParams(fidelity="paper_literal"),
                    schedule=ScheduleSpec(seed=1), duration=10.0)
    trace = run(cfg)
    assert max(abs(r.theta) for r in trace) < 1e9


def test_trace_csv_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    configs = [nominal_config(seed=8, duration=3.0)] + [
        SimConfig(schedule=ScheduleSpec(seed=seed, mode=mode))
        for seed in (1, 2, 3) for mode in ("random_hold", "per_step")]
    for cfg in configs:
        trace = run(cfg)
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back == trace
        assert all(type(r) is TraceRecord for r in back)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


@pytest.mark.parametrize("column, cell", [
    ("saturated", "yes"),
    ("V1_ok", "2"),
    ("cond_main", ""),
    ("guard_event", "bogus_event"),
    ("k", "1.5"),
])
def test_trace_csv_rejects_a_cell_the_writer_never_writes(tmp_path, column, cell):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(nominal_config(seed=0, duration=1.0)), path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[3].rstrip("\n").split(",")
    cells[TRACE_COLUMNS.index(column)] = cell
    lines[3] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"line 4, column {column}: .*{cell!r}"):
        read_trace_csv(path)


@pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 1)[0],
                                  lambda row: "\n" + row],
                         ids=["extra_cell", "missing_cell", "blank_row"])
def test_trace_csv_rejects_a_row_of_the_wrong_length(tmp_path, edit):
    path = tmp_path / "trace.csv"
    write_trace_csv(run(nominal_config(seed=0, duration=1.0)), path)
    lines = path.read_text().splitlines()
    lines[3] = edit(lines[3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4: expected 16 cells"):
        read_trace_csv(path)


def format_cell_reference(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace_csv_reference(trace, path):
    """The trace writer as a csv.writer over per-cell formatting."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for r in trace:
            w.writerow([format_cell_reference(getattr(r, name)) for name in TRACE_COLUMNS])


def reference_traces():
    for seed in (1, 2, 3):
        for gain_mode in ("dynamic", "constant"):
            base = nominal_config(seed=seed)
            yield f"s{seed}-{gain_mode}", run(replace(base, gains=replace(base.gains, gain_mode=gain_mode)))
    yield "per_step", run(SimConfig(schedule=ScheduleSpec(seed=4, mode="per_step")))
    with pytest.raises(DivergenceError) as excinfo:
        run(SimConfig(params=MotorParams(fidelity="paper_literal"),
                      schedule=ScheduleSpec(seed=2), duration=30.0))
    yield "paper_literal-partial", excinfo.value.trace


def test_trace_csv_matches_reference_writer(tmp_path):
    for name, trace in reference_traces():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        write_trace_csv(trace, got)
        write_trace_csv_reference(trace, want)
        assert got.read_bytes() == want.read_bytes(), name
        assert read_trace_csv(got) == trace, name


def test_duration_validation():
    with pytest.raises(ValueError):
        SimConfig(duration=0.0)
    # never run with it: an infinite horizon draws periods without end
    with pytest.raises(ValueError):
        SimConfig(duration=math.inf)
    with pytest.raises(cli.ConfigError):
        cli.build_sim_config(overrides={"duration": math.inf})


@pytest.mark.parametrize("group, name", [
    ("initial", "current_I"), ("initial", "omega"), ("initial", "theta"),
    ("desired", "theta_d"), ("desired", "omega_d"),
])
def test_start_and_target_within_the_divergence_limit(group, name):
    # the bound run enforces on every state it produces; V of a state far
    # beyond it is not a float
    limit = simulator.DIVERGENCE_LIMIT
    base = SimConfig()
    for value in (limit, -limit):
        SimConfig(**{group: replace(getattr(base, group), **{name: value})})
    for value in (math.nextafter(limit, math.inf), -2 * limit, 1e200):
        with pytest.raises(ValueError, match=f"{group}.{name} must be within"):
            SimConfig(**{group: replace(getattr(base, group), **{name: value})})


def test_rk4_crosscheck_short_window():
    cfg = nominal_config(seed=1)
    trace = run(cfg)
    assert rk4_crosscheck(cfg, trace, t_end=0.5) < 1e-6


def rk4_drift_reference(cfg, trace, t_end, dt):
    """The cross-check as a plain sequential loop of 4-stage RK4 substeps."""
    A, B = continuous_matrices(cfg.params)
    x = cfg.initial.as_array()
    worst = 0.0
    for rec, nxt in zip(trace[:-1], trace[1:]):
        if nxt.t > t_end:
            break
        n = int(np.ceil(rec.h_k / dt))
        step = rec.h_k / n
        force = B * rec.u
        for _ in range(n):
            k1 = A @ x + force
            k2 = A @ (x + 0.5 * step * k1) + force
            k3 = A @ (x + 0.5 * step * k2) + force
            k4 = A @ (x + step * k3) + force
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        logged = np.array([nxt.I, nxt.omega, nxt.theta])
        worst = max(worst, float(np.max(np.abs(logged - x)) / max(np.max(np.abs(x)), 1e-12)))
    return worst


def test_rk4_crosscheck_matches_sequential_rk4_loop():
    # dt = 1e-3 puts RK4's own truncation error (~1e-9) far above round-off,
    # so the drift measures the integrator, not the arithmetic
    cfg = nominal_config(seed=1)
    trace = run(cfg)
    ref = rk4_drift_reference(cfg, trace, t_end=0.5, dt=1e-3)
    assert ref > 1e-10
    assert rk4_crosscheck(cfg, trace, t_end=0.5, dt=1e-3) == pytest.approx(ref, rel=1e-4)


def test_rk4_crosscheck_is_fourth_order():
    # halving dt divides a 4th-order drift by ~16; an exact exponential
    # would leave both drifts at round-off
    cfg = nominal_config(seed=1)
    trace = run(cfg)
    ratio = rk4_crosscheck(cfg, trace, t_end=0.5, dt=2e-3) / rk4_crosscheck(cfg, trace, t_end=0.5, dt=1e-3)
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("dt", [-1e-4, 0.0, float("nan")])
def test_rk4_crosscheck_rejects_invalid_dt(dt):
    cfg = nominal_config(seed=1, duration=1.0)
    with pytest.raises(ValueError):
        rk4_crosscheck(cfg, run(cfg), dt=dt)


def test_rk4_crosscheck_reports_blow_up_as_inf():
    # dt = 1e-2 puts the current pole -R/L = -1300 outside RK4's stability
    # interval (|lambda dt| = 13 > 2.79), so the re-integration overflows
    cfg = nominal_config(seed=1)
    trace = run(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rk4_crosscheck(cfg, trace, dt=1e-2) == float("inf")


@pytest.mark.parametrize("gain_mode", ["dynamic", "constant"])
def test_rk4_crosscheck_full_horizon(gain_mode):
    for seed in range(1, 11):
        base = nominal_config(seed=seed)
        cfg = replace(base, gains=replace(base.gains, gain_mode=gain_mode))
        assert rk4_crosscheck(cfg, run(cfg)) <= 1e-6, seed


def test_trace_record_fields_match_columns():
    assert TraceRecord._fields == TRACE_COLUMNS
    # the column contract is spelled out, not derived from the record
    tree = ast.parse(Path(simulator.__file__).read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TRACE_COLUMNS"]]
    assert ast.literal_eval(value) == TRACE_COLUMNS


def test_per_step_records_are_read_only():
    cfg = nominal_config(seed=1)
    model = discretize(cfg.params, 0.11)
    terms = law_terms(cfg.initial.as_array(), cfg.desired, model, cfg.gains)
    out = control_input(terms, 0.0, model.psi)
    sample = check_conditions(terms, out.u, out.k_E_used)
    record = run(cfg)[0]
    for value, name in ((record, "theta"), (out, "u"), (sample, "V")):
        with pytest.raises(AttributeError):
            setattr(value, name, 0.0)
    with pytest.raises(AttributeError):
        model.h = 0.2


def replay(cfg):
    """The closed loop rebuilt from public calls: a fresh model every step,
    the state carried as a PlantState, E from energy, and phi(A h_s) built
    on its own."""
    sched = Scheduler(cfg.schedule)
    p = cfg.params
    state, u_prev, t, k = cfg.initial, 0.0, 0.0, 0
    records = []
    while t < cfg.duration:
        h = sched.next_period()
        model = discretize(p, h)
        xv = state.as_array()
        assert energy_rate(state, u_prev, model.h, p) == float(
            xv * energy_weights(p) @ model.psi @ (model.A @ xv + model.B * u_prev))
        terms = law_terms(xv, cfg.desired, model, cfg.gains)
        out = control_input(terms, u_prev, phi(model.A * cfg.gains.h_s))
        sample = check_conditions(terms, out.u, out.k_E_used)
        records.append(TraceRecord(
            k=k, t=t, h_k=h, I=state.current_I, omega=state.omega, theta=state.theta,
            u=out.u, E=energy(state, p), k_E=out.k_E_used, V=sample.V, V_prime=sample.V_prime,
            saturated=out.saturated, guard_event=out.guard_event,
            V1_ok=sample.V1_ok, V2_ok=sample.V2_ok, cond_main=sample.condition_main))
        state = PlantState.from_array(model.F @ state.as_array() + model.G * out.u)
        u_prev = out.u
        t += h
        k += 1
    return records


@pytest.mark.parametrize("mode", ["random_hold", "per_step"])
def test_run_equals_step_by_step_replay(mode):
    # run discretizes the schedule up front and carries the state as a
    # vector; the replay discretizes every step and goes through PlantState
    # and energy
    for seed in range(1, 31):
        for gain_mode in ("dynamic", "constant"):
            cfg = SimConfig(gains=GainSet(gain_mode=gain_mode),
                            schedule=ScheduleSpec(seed=seed, mode=mode))
            trace = run(cfg)
            assert len(trace) > 40
            assert replay(cfg) == trace, (seed, gain_mode)


@pytest.mark.parametrize("cfg", [
    SimConfig(schedule=ScheduleSpec(seed=2, mode="random_hold")),
    SimConfig(schedule=ScheduleSpec(seed=2, mode="per_step")),
    # a standard period below the floor EPS_H rides in the stack like any other
    SimConfig(gains=GainSet(h_s=5e-5),
              schedule=ScheduleSpec(seed=5, h_min=0.07, h_max=0.2), duration=3.0),
], ids=["random_hold", "per_step", "h_s_below_floor"])
def test_run_discretizes_each_distinct_period_once(monkeypatch, cfg):
    requested, stacks = [], []

    def counting_periods(p, periods, **kwargs):
        requested.append(list(periods))
        return discretize_periods(p, periods, **kwargs)

    def counting_phi(M, *args):
        stacks.append(np.shape(M))
        return phi(M, *args)

    monkeypatch.setattr(simulator, "discretize_periods", counting_periods)
    monkeypatch.setattr(discretizer, "phi", counting_phi)
    trace = run(cfg)
    distinct = list(dict.fromkeys(r.h_k for r in trace))
    if cfg.schedule.mode == "random_hold":
        assert len(distinct) < len(trace)  # the schedule does hold periods
    # one request, each distinct period once plus h_s for psi_s, one stacked phi
    assert requested == [distinct + [cfg.gains.h_s]]
    assert stacks == [(len(distinct) + 1, 3, 3)]


@pytest.mark.parametrize("gain_mode", ["dynamic", "constant"])
@pytest.mark.parametrize("mode", ["random_hold", "per_step"])
def test_run_goes_through_the_public_layer_once_per_step(monkeypatch, mode, gain_mode):
    calls = {"control_input": 0, "check_conditions": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "control_input", counting("control_input", control_input))
    monkeypatch.setattr(simulator, "check_conditions",
                        counting("check_conditions", check_conditions))
    trace = run(SimConfig(gains=GainSet(gain_mode=gain_mode),
                          schedule=ScheduleSpec(seed=3, mode=mode)))
    assert len(trace) > 40
    assert calls == {"control_input": len(trace), "check_conditions": len(trace)}


def test_run_with_standard_period_below_the_floor_matches_replay():
    # psi_s from the stacked run, built by its own phi call in the replay
    cfg = SimConfig(gains=GainSet(h_s=5e-5),
                    schedule=ScheduleSpec(seed=5, h_min=0.07, h_max=0.2), duration=3.0)
    assert cfg.gains.h_s < EPS_H
    trace = run(cfg)
    assert len(trace) > 10
    assert replay(cfg) == trace


def test_divergence_carries_the_partial_trace():
    cfg = SimConfig(params=MotorParams(fidelity="paper_literal"),
                    schedule=ScheduleSpec(seed=1), duration=30.0)
    with pytest.raises(DivergenceError) as excinfo:
        run(cfg)
    partial = excinfo.value.trace
    end = partial[-1].t + partial[-1].h_k
    assert end < cfg.duration
    assert replay(replace(cfg, duration=end)) == partial


def patch_models(monkeypatch, edit):
    """Make run use edit(stack) for the model stack discretize_periods builds."""
    def edited_periods(p, periods, **kwargs):
        return edit(discretize_periods(p, periods, **kwargs))

    monkeypatch.setattr(simulator, "discretize_periods", edited_periods)


def test_overflowing_next_state_raises_with_the_partial_trace(monkeypatch):
    # F scaled by 1e300 stays finite, but F x overflows to inf from a state at
    # the divergence limit
    cfg = SimConfig(initial=PlantState(1e9, 1e9, 1e9),
                    schedule=ScheduleSpec(h_min=0.1, h_max=0.1, mode="fixed"), duration=1.0)
    scaled = []

    def scale(stack):
        scaled.append(replace(stack, F=stack.F * 1e300))
        return scaled[-1]

    patch_models(monkeypatch, scale)
    with np.errstate(over="ignore"):
        with pytest.raises(DivergenceError, match="state magnitude exceeded") as excinfo:
            run(cfg)
        assert np.isinf(scaled[0][0].F @ cfg.initial.as_array()).any()
    partial = excinfo.value.trace
    assert len(partial) == 1
    assert (partial[0].I, partial[0].omega, partial[0].theta) == (1e9, 1e9, 1e9)


def test_nan_next_state_raises_with_the_partial_trace(monkeypatch):
    # a NaN entry in the current row of F for the second distinct period
    # makes the next current NaN there; the omega row, and so every logged
    # column up to that step, is untouched
    cfg = nominal_config(seed=1)
    clean = run(cfg)
    h_bad = next(r.h_k for r in clean if r.h_k != clean[0].h_k)
    k_bad = next(r.k for r in clean if r.h_k == h_bad)

    def poison(stack):
        F = stack.F.copy()
        F[stack.h.tolist().index(h_bad), 0, 0] = np.nan
        bad = copy.copy(stack)
        object.__setattr__(bad, "F", F)  # past ModelStack's finiteness check
        return bad

    patch_models(monkeypatch, poison)
    with pytest.raises(DivergenceError) as excinfo:
        run(cfg)
    assert k_bad > 0
    assert excinfo.value.trace == clean[:k_bad + 1]
