"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest -s`). Oracles here are test-local: scipy's exponential,
composite Gauss-Legendre quadrature, and an augmented-matrix discretizer.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from flexctl.controller import GainSet, control_input, law_terms
from flexctl.discretizer import discretize
from flexctl.matseries import expm_via_phi, phi
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices,
                           energy, energy_rate)
from flexctl.scheduler import ScheduleSpec
from flexctl.simulator import SimConfig, compare_gain_modes, rk4_crosscheck, run
from flexctl.stability import stability_map, v_prime

P = MotorParams()
GAINS = GainSet()
DES = DesiredState()
SEEDS = list(range(1, 11))


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def gauss_legendre_integral(A, h):
    """Test-local quadrature oracle for the ZOH integral of e^(A tau)."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    panels = max(4, int(np.ceil(np.max(np.abs(A)) * h / 2.0)))
    width = h / panels
    acc = np.zeros_like(np.asarray(A, dtype=float))
    for k in range(panels):
        mid = (k + 0.5) * width
        for t, w in zip(nodes, weights):
            acc += w * expm(A * (mid + 0.5 * width * t))
    return acc * (0.5 * width)


def test_criterion_01_series_identities():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    A_ref, _ = continuous_matrices(P)
    cases = [(rng.uniform(-5, 5, size=(3, 3)), float(rng.uniform(0.01, 0.5)))
             for _ in range(200)]
    cases += [(A_ref * h, h) for h in (0.05, 0.11, 0.2)]

    worst = {"commutation": 0.0, "exponential": 0.0, "integral": 0.0, "similarity": 0.0}
    for M, h in cases:
        ph = phi(M)
        worst["commutation"] = max(
            worst["commutation"],
            np.max(np.abs(M @ ph - ph @ M)) / (1e-10 * (1.0 + np.max(np.abs(M)) ** 2)))
        want = expm(M)
        worst["exponential"] = max(
            worst["exponential"],
            np.max(np.abs(expm_via_phi(M) - want)) / np.max(np.abs(want)) / 1e-8)
        T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
        while np.linalg.cond(T) >= 100.0:
            T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
        sim_rhs = np.linalg.solve(T, phi(M) @ T)
        worst["similarity"] = max(
            worst["similarity"],
            np.max(np.abs(phi(np.linalg.solve(T, M @ T)) - sim_rhs))
            / np.max(np.abs(sim_rhs)) / 1e-8)
        # relation (iii) on the underlying generator so the panel count fits
        base = M / h if np.max(np.abs(M)) > 5.0 else M
        want_int = gauss_legendre_integral(base, h)
        got_int = h * phi(base * h)
        worst["integral"] = max(
            worst["integral"],
            np.max(np.abs(got_int - want_int)) / np.max(np.abs(want_int)) / 1e-7)

    elapsed = time.perf_counter() - t0
    ok = all(v <= 1.0 for v in worst.values()) and elapsed < 5.0
    detail = (f"worst error/tolerance ratios {', '.join(f'{k}={v:.2e}' for k, v in worst.items())}; "
              f"runtime {elapsed:.2f}s (< 5 s)")
    assert report("criterion 1 (series identities)", ok, detail), detail


def test_criterion_02_discretization_oracle():
    t0 = time.perf_counter()
    A, B = continuous_matrices(P)
    aug = np.zeros((4, 4))
    aug[:3, :3] = A
    aug[:3, 3] = B
    worst = 0.0
    for h in np.linspace(0.01, 0.3, 50):
        m = discretize(P, float(h))
        big = expm(aug * h)
        worst = max(worst,
                    np.max(np.abs(m.F - big[:3, :3])) / np.max(np.abs(big[:3, :3])),
                    np.max(np.abs(m.G - big[:3, 3])) / np.max(np.abs(big[:3, 3])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    detail = f"worst relative error {worst:.2e} (tol 1e-8); runtime {elapsed:.2f}s (< 5 s)"
    assert report("criterion 2 (discretization oracle)", ok, detail), detail


def test_criterion_03_controller_closure():
    rng = np.random.default_rng(31)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 1000:
        attempts += 1
        assert attempts < 100_000, "rejection sampling failed to find unsaturated outputs"
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u_prev = float(rng.uniform(-45, 45))
        model = discretize(P, h)
        xv = x.as_array()
        terms = law_terms(xv, DES, model, GAINS)
        out = control_input(terms, u_prev, phi(model.A * GAINS.h_s))
        if out.saturated or out.guard_event != "none":
            continue
        checked += 1
        vp = v_prime(terms, out.u, out.k_E_used)
        t1 = out.k_E_used * energy(x, P) * energy_rate(x, out.u, h, P)
        t2 = GAINS.k_D / h * (x.omega - DES.omega_d) * (float(model.F[1] @ xv) - x.omega)
        t3 = GAINS.k_P * (x.theta - DES.theta_d) * x.omega
        worst = max(worst, abs(vp) / (1.0 + abs(t1) + abs(t2) + abs(t3)))
    ok = worst <= 1e-7
    detail = f"1000 unsaturated/unguarded samples, worst |V'| ratio {worst:.2e} (tol 1e-7)"
    assert report("criterion 3 (controller closure)", ok, detail), detail


def test_criterion_04_experiment_reproduction():
    t0 = time.perf_counter()
    rows = []
    for seed in SEEDS:
        trace = run(SimConfig(schedule=ScheduleSpec(seed=seed)))
        rows.append((seed,
                     abs(trace[-1].theta - DES.theta_d),
                     abs(trace[-1].omega),
                     max(abs(r.u) for r in trace)))
    elapsed = time.perf_counter() - t0
    theta_ok = all(r[1] <= 0.05 for r in rows)
    omega_ok = all(r[2] <= 0.05 for r in rows)
    input_ok = all(r[3] <= 45.0 for r in rows)
    ok = theta_ok and omega_ok and input_ok and elapsed < 10.0
    detail = ("per-seed (|theta-2|, |omega|, max|u|): "
              + "; ".join(f"s{s}=({dt:.3f}, {dw:.1e}, {du:.1f})" for s, dt, dw, du in rows)
              + f"; runtime {elapsed:.2f}s (< 10 s)")
    assert report("criterion 4 (experiment reproduction)", ok, detail), detail


def test_criterion_05_standard_period_gain_identity():
    cfg = SimConfig(schedule=ScheduleSpec(h_min=0.11, h_max=0.11, mode="fixed", seed=0))
    trace = run(cfg)
    rows = [r for r in trace if r.guard_event != "gain_fallback"]
    worst = max(abs(r.k_E - 1335.0) for r in rows)
    ok = bool(rows) and worst <= 1e-9
    detail = f"{len(rows)} non-fallback steps, worst |k_E - 1335| = {worst:.2e} (tol 1e-9)"
    assert report("criterion 5 (standard-period gain identity)", ok, detail), detail


def test_criterion_06_dynamic_vs_constant_comparison(tmp_path):
    rows = []
    for seed in SEEDS:
        res = compare_gain_modes(SimConfig(schedule=ScheduleSpec(seed=seed)))
        s = res.summary
        rows.append((seed, s.final_theta_err_dynamic, s.final_theta_err_constant,
                     s.schedule_hash))
    summary_path = tmp_path / "summary.csv"
    with summary_path.open("w") as f:
        f.write("seed,final_theta_err_dynamic,final_theta_err_constant,schedule_hash\n")
        for seed, dyn, con, sh in rows:
            f.write(f"{seed},{dyn!r},{con!r},{sh}\n")
    med_dyn = float(np.median([r[1] for r in rows]))
    med_con = float(np.median([r[2] for r in rows]))
    ok = summary_path.exists() and med_dyn <= med_con
    detail = (f"paired summary at {summary_path}; median final |theta - theta_d|: "
              f"dynamic {med_dyn:.4f} vs constant {med_con:.4f}")
    assert report("criterion 6 (dynamic vs constant medians)", ok, detail), detail


def test_criterion_07_energy_bookkeeping():
    trace = run(SimConfig(schedule=ScheduleSpec(seed=1)))
    worst = max(abs(r.E - energy(PlantState(r.I, r.omega, r.theta), P)) for r in trace)
    initial_ok = abs(trace[0].E - 0.05208) <= 1e-12
    ok = worst <= 1e-12 and initial_ok
    detail = f"worst |E - 0.5 x'Dx| = {worst:.2e} (tol 1e-12); initial E = {trace[0].E!r}"
    assert report("criterion 7 (energy bookkeeping)", ok, detail), detail


def test_criterion_08_byte_identical_traces(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FLEXCTL_SEED"}
    for name in ("one.csv", "two.csv"):
        res = subprocess.run(
            [sys.executable, "-m", "flexctl.cli", "run", "--seed", "11", "--out", name],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    same = (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    detail = "two consecutive CLI runs with identical (config, seed) produced identical bytes"
    assert report("criterion 8 (determinism)", same, detail), detail


def test_criterion_09_stability_map_kp_ordering():
    h_vals = np.linspace(0.01, 0.3, 50)
    om_vals = np.linspace(0.0, 10.0, 50)
    cfg = SimConfig(params=P, gains=GAINS)
    hi = stability_map(cfg, h_vals, om_vals).stable_count()
    lo = stability_map(replace(cfg, gains=replace(GAINS, k_P=50.0)), h_vals, om_vals).stable_count()
    ok = hi >= lo
    detail = f"stable cells: k_P=565 -> {hi}, k_P=50 -> {lo} (default 50x50 grid)"
    assert report("criterion 9 (stability map)", ok, detail), detail


def test_criterion_10_continuous_crosscheck():
    cfg = SimConfig(schedule=ScheduleSpec(seed=1))
    trace = run(cfg)
    err = rk4_crosscheck(cfg, trace, t_end=2.0)
    ok = err <= 1e-6
    detail = f"max relative ZOH-vs-RK4 deviation over 2 s window = {err:.2e} (tol 1e-6)"
    assert report("criterion 10 (continuous cross-check)", ok, detail), detail
