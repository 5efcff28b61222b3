import csv
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from flexctl.controller import EPS_H, GainSet, SamplingTooSmallError, control_input, law_terms
from flexctl.discretizer import discretize, discretize_periods
from flexctl.matseries import phi
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices,
                           energy, energy_weights)
from flexctl.scheduler import ScheduleSpec
from flexctl.simulator import SimConfig, run
from flexctl.stability import check_conditions, lyapunov, stability_map, v_prime, v1_margin

P = MotorParams()
GAINS = GainSet()
DES = DesiredState()


def v_prime_oracle(x, d, u, h, gains, k_E, p):
    """Independent recomposition of the Lyapunov rate from scipy's exponential."""
    A, B = continuous_matrices(p)
    D = np.diag(energy_weights(p))
    F = expm(A * h)
    ph = np.linalg.solve(A * h, F - np.eye(3))
    xv = x.as_array()
    E = 0.5 * xv @ D @ xv
    return (k_E * E * (xv @ D @ ph @ (A @ xv + B * u))
            + gains.k_D / h * (x.omega - d.omega_d) * (F[1] @ xv - x.omega)
            + gains.k_P * (x.theta - d.theta_d) * x.omega)


def terms_at(x, model, d=DES, gains=GAINS):
    """The law terms at the PlantState x."""
    return law_terms(x.as_array(), d, model, gains)


def map_config(gains=GAINS, d=DES, current_I=0.4, theta=0.1):
    """The SimConfig a map reads: motor P, the gains and target, and its
    initial current and angle."""
    return SimConfig(params=P, gains=gains, desired=d,
                     initial=PlantState(current_I, SimConfig().initial.omega, theta))


def margin_at(x, d, model, gains):
    """The V1 margin at the PlantState x, with F_m x formed here."""
    return v1_margin(x.omega, x.theta, d, model.h, gains, float(model.F[1] @ x.as_array()))


def test_lyapunov_zero_at_desired_rest():
    d = DesiredState(theta_d=0.0)
    assert lyapunov(0.0, 0.0, d, 0.0, GAINS, 725.0) == 0.0


def test_lyapunov_reference_value():
    # 0.5*725*0.05208^2 + 0.5*0.07*5^2 + 0.5*565*(0.1-2)^2
    V = lyapunov(5.0, 0.1, DES, 0.05208, GAINS, 725.0)
    assert V == pytest.approx(1021.68321832, abs=1e-8)


def test_lyapunov_scales_with_gains():
    x = PlantState(0.2, -1.0, 3.0)
    V1 = lyapunov(x.omega, x.theta, DES, 0.4, GAINS, 725.0)
    scaled = GainSet(k_E_s=GAINS.k_E_s, k_P=3 * GAINS.k_P, k_D=3 * GAINS.k_D)
    V3 = lyapunov(x.omega, x.theta, DES, 0.4, scaled, 3 * 725.0)
    assert V3 == pytest.approx(3 * V1, rel=1e-12)


def test_lyapunov_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = PlantState(*rng.uniform(-20, 20, size=3))
        V = lyapunov(x.omega, x.theta, DES, float(rng.uniform(0, 10)), GAINS,
                     float(rng.uniform(0, 2000)))
        assert V >= 0.0


def test_v_prime_zero_case():
    model = discretize(P, 0.11)
    got = v_prime(terms_at(PlantState(0, 0, 0), model, d=DesiredState(theta_d=0.0)), 0.0,
                  725.0)
    assert got == 0.0


def test_v_prime_double_entry_oracle():
    model = discretize(P, 0.11)
    x = PlantState(0.4, 5.0, 0.1)
    got = v_prime(terms_at(x, model), 0.0, 1335.0)
    want = v_prime_oracle(x, DES, 0.0, 0.11, GAINS, 1335.0, P)
    assert got == pytest.approx(want, rel=1e-9)


def test_v_prime_closure_with_control_input():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 50:
        x = PlantState(*rng.uniform(-10, 10, size=3))
        model = discretize(P, float(rng.uniform(0.05, 0.2)))
        terms = terms_at(x, model)
        out = control_input(terms, float(rng.uniform(-45, 45)), phi(model.A * GAINS.h_s))
        if out.saturated or out.guard_event != "none":
            continue
        checked += 1
        assert abs(v_prime(terms, out.u, out.k_E_used)) < 1e-6


def test_one_law_across_entry_points():
    # closure on one set of law terms: check_conditions reports the V' of
    # v_prime and the V1 margin of a state's own F_m x to the bit, and the
    # control input solved from the same terms zeroes that V'
    rng = np.random.default_rng(5)
    closed = 0
    for _ in range(200):
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u = float(rng.uniform(-45, 45))
        k_E = float(rng.uniform(GAINS.K_c, 2000.0))
        model = discretize(P, h)
        terms = terms_at(x, model)
        s = check_conditions(terms, u, k_E)
        assert s.V_prime == v_prime(terms, u, k_E)
        assert s.v1_margin == margin_at(x, DES, model, GAINS)
        out = control_input(terms, u, phi(model.A * GAINS.h_s))
        if out.saturated or out.guard_event != "none":
            continue
        closed += 1
        vp = check_conditions(terms, out.u, out.k_E_used).V_prime
        assert vp == v_prime(terms, out.u, out.k_E_used)
        assert abs(vp) < 1e-6
    assert closed >= 100


def test_v_prime_approximates_forward_difference():
    # residual against the true forward difference shrinks as h shrinks
    x = PlantState(0.1, 0.5, 1.5)
    u = 1.0
    k_E = 1335.0
    residuals = []
    for h in (0.04, 0.02, 0.01):
        m = discretize(P, h)
        x1 = PlantState.from_array(m.F @ x.as_array() + m.G * u)
        V0 = lyapunov(x.omega, x.theta, DES, energy(x, P), GAINS, k_E)
        V1 = lyapunov(x1.omega, x1.theta, DES, energy(x1, P), GAINS, k_E)
        residuals.append(abs(v_prime(terms_at(x, m), u, k_E) - (V1 - V0) / h))
    assert residuals[0] > residuals[1] > residuals[2]


def test_check_conditions_rest_at_desired():
    model = discretize(P, 0.11)
    d = DesiredState(theta_d=0.0)
    s = check_conditions(terms_at(PlantState(0, 0, 0), model, d=d), 0.0, 725.0)
    assert s.V == 0.0
    assert s.V_prime == 0.0
    assert s.condition_main and s.V1_ok and s.V2_ok
    assert s.boundary_low_ok and s.boundary_high_ok
    assert s.v1_margin == 0.0
    assert s.v2_margin == 0.0


def test_check_conditions_sample_fields():
    model = discretize(P, 0.11)
    s = check_conditions(terms_at(PlantState(0.4, 5.0, 0.1), model), 3.0, 1335.0)
    assert s.V >= 0.0
    assert s.V1_ok == (s.v1_margin <= 0.0)
    # V2 and the high-boundary test are opposite inequalities on B u + A x
    A, B = continuous_matrices(P)
    closed = A @ np.array([0.4, 5.0, 0.1]) + B * 3.0
    assert s.V2_ok == bool(np.all(closed <= 0.0))
    assert s.boundary_high_ok == bool(np.all(closed >= 0.0))
    assert s.v2_margin == pytest.approx(float(np.max(closed)), rel=1e-12)


def test_v1_and_v2_do_not_imply_a_decreasing_v():
    # V2 bounds the energy term k_E E w (A x + B u) only where w = x^T D phi(A h)
    # is componentwise >= 0; here w has negative I and omega entries
    x = PlantState(-2.738, -29.12, 2.257)
    h, u = 0.0525, -33.71
    model = discretize(P, h)
    s = check_conditions(terms_at(x, model), u, GAINS.k_E_s)
    assert s.V1_ok and s.V2_ok
    assert not s.condition_main
    assert s.V_prime == pytest.approx(22_730.6, rel=1e-5)
    assert s.V_prime == pytest.approx(v_prime_oracle(x, DES, u, h, GAINS, GAINS.k_E_s, P),
                                      rel=1e-9)


def sign_samples():
    """(x, u) pairs: exact-zero states, inputs and components of B u + A x
    among seeded random ones, and an infinite input that makes it NaN."""
    rng = np.random.default_rng(13)
    yield PlantState(0.0, 0.0, 0.0), 0.0
    yield PlantState(0.0, 0.0, 0.0), -0.0
    yield PlantState(0.0, 0.0, 0.7), 0.0     # A x = (0, -K_L theta / J, 0)
    yield PlantState(0.0, 0.0, -0.7), 0.0
    yield PlantState(0.4, 5.0, 0.1), float("inf")
    for _ in range(2000):
        xv = rng.uniform(-10, 10, size=3) * (rng.random(3) < 0.7)  # ~30% exact zeros
        u = float(rng.uniform(-45, 45)) if rng.random() < 0.8 else 0.0
        yield PlantState(*xv.tolist()), u


def test_sign_flags_equal_the_componentwise_reductions():
    A, B = continuous_matrices(P)
    model = discretize(P, 0.11)
    zero_components = 0
    for x, u in sign_samples():
        with np.errstate(invalid="ignore"):  # 0 * inf in B u
            closed = A @ x.as_array() + B * u
            s = check_conditions(terms_at(x, model), u, 725.0)
        zero_components += int(np.sum(closed == 0.0))
        assert s.V2_ok == bool((closed <= 0.0).all()), (x, u)
        assert s.boundary_high_ok == bool((-closed <= 0.0).all()), (x, u)
        want = float(closed.max())
        assert s.v2_margin == want or (np.isnan(want) and np.isnan(s.v2_margin)), (x, u)
    assert zero_components > 500


def test_v1_holds_in_high_kp_regime_on_approach_states():
    # k_P = 565 >> k_D = 0.07: V1 holds on >= 95% of transient approach states
    # ((theta - theta_d) * omega < 0, |omega| >= 1); measured rate is 100%.
    rng = np.random.default_rng(7)
    n = ok = 0
    while n < 200:
        th, om, cur = rng.uniform(-10, 10, size=3)
        if (th - DES.theta_d) * om >= 0 or abs(om) < 1.0:
            continue
        model = discretize(P, float(rng.uniform(0.05, 0.2)))
        n += 1
        ok += margin_at(PlantState(cur, om, th), DES, model, GAINS) <= 0.0
    assert ok / n >= 0.95


# |omega| below this is the round-off floor the loop parks at; there every
# V1 term carries the factor omega, so the sign of the margin is round-off
OMEGA_FLOOR = 1e-12


def test_v1_census_on_nominal_run():
    # recorded census for the seeded reference run, on the transient steps
    # only: the decay to rest alternates the sign of omega, so V1 holds on
    # every other step; the steps at the floor are not asserted on
    trace = run(SimConfig(schedule=ScheduleSpec(seed=1)))
    transient = [r.V1_ok for r in trace if abs(r.omega) >= OMEGA_FLOOR]
    assert transient == [True, False, False] + [True, False] * 10


# the adversary's menu: 7 periods spanning the default schedule range
ADVERSARY_MODELS = discretize_periods(P, np.linspace(0.05, 0.2, 7).tolist())


def adversarial_run(gains, objective, duration=10.0):
    """The closed loop under a greedy switching adversary built from public
    calls: every step it tries each period on the menu and keeps the one
    whose next state has the largest V (at this step's gain) or the largest
    max|x|. Returns the visited states, their times and the periods used."""
    x, u_prev, t = SimConfig().initial, 0.0, 0.0
    psi_s = phi(ADVERSARY_MODELS[0].A * gains.h_s)
    states, times, periods = [x], [t], []
    while t < duration:
        best = None
        for model in ADVERSARY_MODELS:
            out = control_input(terms_at(x, model, gains=gains), u_prev, psi_s)
            nxt = PlantState.from_array(model.F @ x.as_array() + model.G * out.u)
            if objective == "V":
                score = lyapunov(nxt.omega, nxt.theta, DES, energy(nxt, P), gains, out.k_E_used)
            else:
                score = float(np.max(np.abs(nxt.as_array())))
            if best is None or score > best[0]:
                best = (score, model, out, nxt)
        _, model, out, x = best
        u_prev = out.u
        t += model.h
        states.append(x)
        times.append(t)
        periods.append(model.h)
    return states, times, periods


@pytest.mark.parametrize("objective", ["V", "max_abs_x"])
@pytest.mark.parametrize("gain_mode", ["dynamic", "constant"])
def test_adversarial_switching_stays_bounded_and_parks(gain_mode, objective):
    # the paper's claim that the periods may switch arbitrarily without
    # destabilizing the loop, against a worst-case greedy schedule. Measured
    # over both modes and objectives (10 s, 53-64 steps, 9-39 switches):
    # max|x| 55.35-68.14, the loop parks by t = 2.5 s, and from t = 5 s on
    # |omega| <= 9.1e-13 with theta moving by <= 2.7e-13 rad, at 9.13-14.12 rad,
    # far from theta_d = 2 and from the minimizer 1.588 rad of V at rest
    states, times, periods = adversarial_run(GainSet(gain_mode=gain_mode), objective)
    assert sum(a != b for a, b in zip(periods, periods[1:])) >= 5   # it does switch
    # bounded: 10% headroom over 68.14
    assert max(float(np.max(np.abs(x.as_array()))) for x in states) <= 75.0
    late = [x for x, t in zip(states, times) if t >= 5.0]
    assert len(late) >= 20
    # parked: 11x headroom on |omega|, 37x on the drift of theta
    assert max(abs(x.omega) for x in late) <= 1e-11
    thetas = [x.theta for x in late]
    assert max(thetas) - min(thetas) <= 1e-11
    # where: 0.6 rad of headroom below 9.13 and 0.9 rad above 14.12
    assert 8.5 <= thetas[-1] <= 15.0


def test_stability_map_single_cell_at_rest():
    grid = stability_map(map_config(), [0.11], [0.0])
    assert grid.margins.shape == (1, 1)
    assert grid.margins[0, 0] == 0.0
    assert grid.stable_count() == 1


def test_stability_map_monotone_in_kp():
    h_vals = np.linspace(0.01, 0.3, 8)
    om_vals = np.linspace(0.0, 10.0, 8)
    hi = stability_map(map_config(), h_vals, om_vals)
    lo = stability_map(map_config(replace(GAINS, k_P=50.0)), h_vals, om_vals)
    # constant theta = 0.1 < theta_d: (theta - theta_d) * omega <= 0 on the grid
    assert np.all(hi.margins <= lo.margins + 1e-12)
    assert hi.stable_count() >= lo.stable_count()


def stability_map_reference(p, gains, h_values, omega_values, current_I, theta, d):
    """The map as one v1_margin call per cell."""
    rows = []
    for h in h_values:
        model = discretize(p, float(h))
        rows.append([margin_at(PlantState(current_I, float(om), theta), d, model, gains)
                     for om in omega_values])
    return np.array(rows)


MAP_CASES = [
    # (gains, desired, current_I, theta, h values, omega values)
    (GAINS, DES, 0.4, 0.1, np.linspace(0.01, 0.3, 50), np.linspace(0.0, 10.0, 50)),
    (replace(GAINS, k_P=50.0), DES, 0.4, 0.1,
     np.linspace(0.01, 0.3, 20), np.linspace(0.0, 10.0, 20)),
    (replace(GAINS, k_P=1.0, k_D=0.5), DES, 0.4, 0.1,
     np.linspace(0.01, 0.3, 17), np.linspace(-8.0, 8.0, 23)),
    (replace(GAINS, k_P=900.0, k_D=3.0), DesiredState(theta_d=-1.5, omega_d=0.7), -2.5, 4.0,
     np.linspace(0.05, 0.5, 9), np.linspace(-40.0, 25.0, 31)),
    (GAINS, DesiredState(theta_d=0.3, omega_d=-2.0), 7.0, -3.0, [0.11], [-4.25]),
]


@pytest.mark.parametrize("case", range(len(MAP_CASES)))
def test_stability_map_matches_per_cell_v1_margin(case):
    gains, d, cur, th, h_vals, om_vals = MAP_CASES[case]
    grid = stability_map(map_config(gains, d, cur, th), h_vals, om_vals)
    want = stability_map_reference(P, gains, h_vals, om_vals, cur, th, d)
    assert np.array_equal(grid.margins, want)


@pytest.mark.parametrize("k_P", [565.0, 50.0, 5.0, 0.5])
def test_stability_map_rows_are_quadratics_in_omega(k_P):
    # with omega_d = 0 a row's V1 margin is omega (a_h omega + b_h), where
    # a_h = (k_D/h)(1 + F_m[1]) and b_h = k_P (theta - theta_d)
    # + (k_D/h)(F_m[0] I + F_m[2] theta); the map's signs follow it on the
    # CLI's default axes, and a_h > 0 over the whole h axis
    gains = replace(GAINS, k_P=k_P)
    cur, th = 0.4, 0.1
    h_vals, om_vals = np.linspace(0.01, 0.3, 50), np.linspace(0.0, 10.0, 50)
    assert DES.omega_d == 0.0
    grid = stability_map(map_config(gains, DES, cur, th), h_vals, om_vals)
    fm = np.array([discretize(P, float(h)).F[1] for h in h_vals])
    kd_h = gains.k_D / h_vals
    a = kd_h * (1.0 + fm[:, 1])
    b = k_P * (th - DES.theta_d) + kd_h * (fm[:, 0] * cur + fm[:, 2] * th)
    quadratic = om_vals[None, :] * (a[:, None] * om_vals[None, :] + b[:, None])
    assert np.array_equal(grid.margins <= 0.0, quadratic <= 0.0)
    assert a.min() > 0.0


def write_map_csv_reference(grid, path):
    """The map writer as a csv.writer over per-cell repr."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["axis1", "axis2", "V1_margin"])
        for i, a1 in enumerate(grid.axis1_values):
            for j, a2 in enumerate(grid.axis2_values):
                w.writerow([repr(float(a1)), repr(float(a2)), repr(float(grid.margins[i, j]))])


def test_stability_map_csv_matches_reference_writer(tmp_path):
    for case, (gains, d, cur, th, h_vals, om_vals) in enumerate(MAP_CASES):
        grid = stability_map(map_config(gains, d, cur, th), h_vals, om_vals)
        got, want = tmp_path / f"{case}.csv", tmp_path / f"{case}.ref.csv"
        grid.write_csv(got)
        write_map_csv_reference(grid, want)
        assert got.read_bytes() == want.read_bytes(), case


@pytest.mark.parametrize("state", [
    {"omega_values": [0.0, np.nan]},
    {"current_I": np.inf},
    {"theta": np.nan},
    # beyond the divergence limit, where the margins overflowed
    {"omega_values": [0.0, 1e300]},
    {"omega_values": [-1.0000001e9, 0.0]},
])
def test_stability_map_non_finite_state_rejected(state):
    omega_values = state.get("omega_values", [0.0, 1.0])
    initial = {k: v for k, v in state.items() if k != "omega_values"}
    with pytest.raises(ValueError, match="finite"):
        # the map's current and angle come from a PlantState, which rejects these
        cfg = replace(SimConfig(), initial=replace(SimConfig().initial, **initial))
        stability_map(cfg, [0.11], omega_values)


def test_stability_map_omega_at_the_divergence_limit_is_finite():
    # the extreme state the config admits: every margin finite, no overflow
    # warning (pytest makes a RuntimeWarning an error)
    cfg = replace(SimConfig(), initial=PlantState(-1e9, 1e9, 1e9),
                  desired=DesiredState(theta_d=-1e9, omega_d=1e9))
    grid = stability_map(cfg, [EPS_H, 0.11, 100.0], [-1e9, 0.0, 1e9])
    assert np.isfinite(grid.margins).all()


def test_stability_map_export(tmp_path):
    grid = stability_map(map_config(), np.linspace(0.05, 0.2, 4), np.linspace(0.0, 5.0, 6))
    out = tmp_path / "grid.csv"
    grid.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "axis1,axis2,V1_margin"
    assert len(lines) == 1 + 4 * 6


def test_stability_map_empty_axis_rejected():
    with pytest.raises(ValueError):
        stability_map(map_config(), [], [0.0])


def test_stability_map_h_below_floor_rejected():
    with pytest.raises(SamplingTooSmallError):
        stability_map(map_config(), [1e-6], [0.0])
