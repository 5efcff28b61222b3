import numpy as np
import pytest

from flexctl.controller import ControlOutput, GainSet, SamplingTooSmallError, control_input
from flexctl.discretizer import discretize, rotational_row
from flexctl.matseries import phi
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices,
                           energy, energy_rate, energy_weights)
from flexctl.stability import v_prime

P = MotorParams()
GAINS = GainSet()
DES = DesiredState()
X0 = PlantState(0.4, 5.0, 0.1)


def retuned_gain(x, u_prev, h, gains=GAINS):
    return control_input(x, DES, discretize(P, h), gains, P, u_prev).k_E_used


def test_dynamic_gain_at_standard_period():
    # ratio is exactly one when h_k equals h_s, so k_E = k_E_s + K_c
    for u_prev in (0.0, 5.0, -12.0):
        gain = retuned_gain(X0, u_prev, GAINS.h_s)
        assert gain == pytest.approx(725.0 + 610.0, abs=1e-9)


def test_constant_mode_returns_standard_gain():
    gains = GainSet(gain_mode="constant")
    assert retuned_gain(X0, 0.0, 0.07, gains) == 725.0


def test_zero_state_falls_back():
    assert retuned_gain(PlantState(0, 0, 0), 0.0, 0.08) == GAINS.k_E_s


def test_dynamic_gain_clamped_from_below():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u_prev = float(rng.uniform(-45, 45))
        assert retuned_gain(x, u_prev, h) >= GAINS.K_c


def test_rest_state_at_origin_gets_energy_floor():
    model = discretize(P, 0.11)
    out = control_input(PlantState(0, 0, 0), DesiredState(theta_d=0.0), model,
                        GAINS, P, u_prev=0.0)
    assert out.guard_event == "energy_floor"
    assert out.u == 0.0
    assert not out.saturated


def test_closure_identity_on_random_states():
    # the law is defined by zeroing V'; check |V'| against the term magnitudes
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        x = PlantState(*rng.uniform(-10, 10, size=3))
        h = float(rng.uniform(0.05, 0.2))
        u_prev = float(rng.uniform(-45, 45))
        model = discretize(P, h)
        out = control_input(x, DES, model, GAINS, P, u_prev)
        if out.saturated or out.guard_event != "none":
            continue
        checked += 1
        vp = v_prime(x, DES, out.u, model, GAINS, out.k_E_used, P)
        xv = x.as_array()
        f_m = rotational_row(model)
        t1 = out.k_E_used * energy(x, P) * energy_rate(x, out.u, h, P)
        t2 = GAINS.k_D / h * (x.omega - DES.omega_d) * (float(f_m @ xv) - x.omega)
        t3 = GAINS.k_P * (x.theta - DES.theta_d) * x.omega
        assert abs(vp) <= 1e-7 * (1.0 + abs(t1) + abs(t2) + abs(t3))


def test_large_error_state_saturates():
    # theta error of 10 rad with the shaft receding at 50 rad/s; the reference
    # initial state also drives u_raw far beyond the 45 V limit
    model = discretize(P, 0.11)
    for x in (PlantState(0.0, -50.0, DES.theta_d + 10.0), X0):
        out = control_input(x, DES, model, GAINS, P, u_prev=0.0)
        assert out.saturated
        assert abs(out.u) == GAINS.u_sat


def test_output_always_within_saturation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = PlantState(*rng.uniform(-50, 50, size=3))
        model = discretize(P, float(rng.uniform(0.05, 0.2)))
        out = control_input(x, DES, model, GAINS, P, float(rng.uniform(-100, 100)))
        assert abs(out.u) <= GAINS.u_sat


def test_sampling_floor_raises():
    model = discretize(P, 5e-5)
    with pytest.raises(SamplingTooSmallError):
        control_input(X0, DES, model, GAINS, P, 0.0)


def test_denominator_floor_holds_previous_input():
    h = 0.11
    model = discretize(P, h)
    A, B = continuous_matrices(P)
    v = np.diag(energy_weights(P)) @ phi(A * h) @ B
    x = PlantState(v[1], -v[0], 0.0)  # x . (D phi B) = 0 exactly
    out = control_input(x, DES, model, GAINS, P, u_prev=7.5)
    assert out.guard_event == "denominator_floor"
    assert out.u == 7.5

    out_big = control_input(x, DES, model, GAINS, P, u_prev=100.0)
    assert out_big.u == GAINS.u_sat
    assert out_big.saturated


def test_gain_fallback_event_surfaces():
    h = 0.09
    model = discretize(P, h)
    A, B = continuous_matrices(P)
    xv = X0.as_array()
    w = xv @ np.diag(energy_weights(P)) @ phi(A * h)
    hold = -float(w @ (A @ xv)) / float(w @ B)  # makes E'(h_k) vanish
    out = control_input(X0, DES, model, GAINS, P, u_prev=hold)
    assert out.guard_event == "gain_fallback"
    assert out.k_E_used == GAINS.k_E_s


def test_determinism():
    model = discretize(P, 0.13)
    a = control_input(X0, DES, model, GAINS, P, 1.25)
    b = control_input(X0, DES, model, GAINS, P, 1.25)
    assert a == b
    assert isinstance(a, ControlOutput)


def test_gain_and_guard_validation():
    with pytest.raises(ValueError):
        GainSet(k_P=-1.0)
    with pytest.raises(ValueError):
        GainSet(gain_mode="sometimes")
