import math

import numpy as np
import pytest

from flexctl.discretizer import discretize
from flexctl.plant import (DesiredState, MotorParams, PlantState, continuous_matrices,
                           energy, energy_rate, energy_weights)

REFERENCE_A_CORRECTED = np.array([
    [-1300.0, -500.0, 0.0],
    [125.0, -10.0, -100.0],
    [0.0, 1.0, 0.0],
])


def test_continuous_matrices_corrected():
    A, B = continuous_matrices(MotorParams())
    np.testing.assert_array_equal(A, REFERENCE_A_CORRECTED)
    np.testing.assert_array_equal(B, [1000.0, 0.0, 0.0])


def test_continuous_matrices_paper_literal():
    A, B = continuous_matrices(MotorParams(fidelity="paper_literal"))
    want = REFERENCE_A_CORRECTED.copy()
    want[2] = [0.0, 0.0, 1.0]
    np.testing.assert_array_equal(A, want)
    np.testing.assert_array_equal(B, [-1000.0, 0.0, 0.0])


@pytest.mark.parametrize("fidelity", ["corrected", "paper_literal"])
def test_unit_params(fidelity):
    p = MotorParams(R=1, L=1, K_b=1, K_m=1, J=1, B_f=1, K_L=1, fidelity=fidelity)
    A, _ = continuous_matrices(p)
    assert A[0, 0] == -1.0
    assert A[0, 1] == -1.0
    assert A[1, 0] == 1.0
    assert A[1, 1] == -1.0
    assert A[1, 2] == -1.0


def test_params_validation():
    with pytest.raises(ValueError):
        MotorParams(R=-1.0)
    with pytest.raises(ValueError):
        MotorParams(fidelity="wrong")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", ["R", "L", "K_b", "K_m", "J", "B_f", "K_L"])
def test_params_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        MotorParams(**{name: value})


def test_energy_weights():
    np.testing.assert_array_equal(energy_weights(MotorParams()), [0.001, 0.004, 0.4])
    ones = MotorParams(R=1, L=1, K_b=1, K_m=1, J=1, B_f=1, K_L=1)
    np.testing.assert_array_equal(energy_weights(ones), np.ones(3))


def test_energy_values():
    p = MotorParams()
    assert energy(PlantState(0.0, 0.0, 0.0), p) == 0.0
    # reference initial state: 0.5*(0.001*0.4^2 + 0.004*5^2 + 0.4*0.1^2)
    assert energy(PlantState(0.4, 5.0, 0.1), p) == pytest.approx(0.05208, abs=1e-12)


def test_energy_scaling_and_symmetry():
    p = MotorParams()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=3)
        e = energy(PlantState(*x), p)
        assert energy(PlantState(*(2 * x)), p) == pytest.approx(4 * e, rel=1e-12)
        assert energy(PlantState(*(-x)), p) == pytest.approx(e, rel=1e-12)
        assert e >= 0.0


def test_energy_rate_zero_state():
    assert energy_rate(PlantState(0, 0, 0), 12.3, 0.07, MotorParams()) == 0.0


def test_energy_rate_residual_identity():
    # E'*h - (E_next - E) must equal -0.5 * dx^T D dx for the discrete step
    p = MotorParams()
    D = np.diag(energy_weights(p))
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=3)
        u = rng.uniform(-45, 45)
        h = rng.uniform(0.05, 0.2)
        m = discretize(p, h)
        dx = (m.F - np.eye(3)) @ x + m.G * u
        e0 = 0.5 * x @ D @ x
        e1 = 0.5 * (x + dx) @ D @ (x + dx)
        lhs = energy_rate(PlantState(*x), u, h, p) * h - (e1 - e0)
        rhs = -0.5 * dx @ D @ dx
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_energy_rate_small_h_limit():
    p = MotorParams()
    A, B = continuous_matrices(p)
    x = PlantState(0.4, 5.0, 0.1)
    cont = float(x.as_array() @ np.diag(energy_weights(p)) @ (A @ x.as_array()))
    d1 = abs(energy_rate(x, 0.0, 1e-6, p) - cont)
    d2 = abs(energy_rate(x, 0.0, 1e-7, p) - cont)
    assert d1 / abs(cont) < 5e-3
    assert d2 < d1


def test_energy_rate_linear_in_u():
    p = MotorParams()
    x = PlantState(1.0, -2.0, 0.5)
    h = 0.11
    base = energy_rate(x, 0.0, h, p)
    g1 = energy_rate(x, 1.0, h, p) - base
    assert energy_rate(x, 7.5, h, p) - base == pytest.approx(7.5 * g1, rel=1e-9)


def test_paper_literal_theta_row_is_decoupled():
    A, B = continuous_matrices(MotorParams(fidelity="paper_literal"))
    np.testing.assert_array_equal(A[2], [0.0, 0.0, 1.0])
    assert B[2] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("component", [0, 1, 2])
def test_state_validation_and_roundtrip(component, bad):
    entries = [0.0, 0.0, 0.0]
    entries[component] = bad
    with pytest.raises(ValueError):
        PlantState(*entries)
    x = PlantState(1.0, 2.0, 3.0)
    assert PlantState.from_array(x.as_array()) == x


def test_desired_state_defaults():
    d = DesiredState()
    assert (d.theta_d, d.omega_d) == (2.0, 0.0)
