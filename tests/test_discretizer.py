import numpy as np
import pytest
from scipy.linalg import expm

from flexctl.discretizer import discretize
from flexctl.plant import MotorParams, continuous_matrices


def augmented_oracle(A, B, h):
    """(F, G) from the exponential of [[A, B], [0, 0]]."""
    n = A.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = A
    aug[:n, n] = B
    big = expm(aug * h)
    return big[:n, :n], big[:n, n]


def test_reference_motor_against_augmented_oracle():
    p = MotorParams()
    A, B = continuous_matrices(p)
    m = discretize(p, 0.11)
    F, G = augmented_oracle(A, B, 0.11)
    assert np.max(np.abs(m.F - F)) / np.max(np.abs(F)) < 1e-8
    assert np.max(np.abs(m.G - G)) / np.max(np.abs(G)) < 1e-8


def test_semigroup_property():
    p = MotorParams()
    rng = np.random.default_rng(0)
    for _ in range(10):
        h1 = float(rng.uniform(0.01, 0.15))
        h2 = float(rng.uniform(0.01, 0.15))
        F_total = discretize(p, h1 + h2).F
        F_split = discretize(p, h2).F @ discretize(p, h1).F
        assert np.max(np.abs(F_total - F_split)) / np.max(np.abs(F_total)) < 1e-8


def test_small_h_expansion():
    p = MotorParams()
    A, _ = continuous_matrices(p)
    ratios = []
    for h in (1e-4, 5e-5, 2.5e-5):
        m = discretize(p, h)
        ratios.append(np.max(np.abs(m.F - np.eye(3) - A * h)) / h**2)
    assert max(ratios) / min(ratios) < 1.2


def test_rotational_row():
    p = MotorParams()
    A, B = continuous_matrices(p)
    m = discretize(p, 0.11)
    F, _ = augmented_oracle(A, B, 0.11)
    assert np.max(np.abs(m.F[1] - F[1])) < 1e-8 * np.max(np.abs(F[1]))


def test_rotational_row_predicts_omega():
    p = MotorParams()
    m = discretize(p, 0.08)
    x = np.array([0.4, 5.0, 0.1])
    u = 3.0
    omega_next = (m.F @ x + m.G * u)[1]
    assert m.F[1] @ x == pytest.approx(omega_next - m.G[1] * u, rel=1e-12)


def test_model_validation():
    from flexctl.discretizer import DiscreteModel
    fields = dict(F=np.eye(3), G=np.zeros(3), h=0.1, psi=np.eye(3), A=np.eye(3), B=np.zeros(3),
                  weights=np.ones(3))
    DiscreteModel(**fields)
    with pytest.raises(ValueError):
        DiscreteModel(**{**fields, "h": 0.0})
    for name in ("F", "G", "psi", "A", "B", "weights"):
        with pytest.raises(ValueError):
            DiscreteModel(**{**fields, name: np.full_like(fields[name], np.nan)})
    with pytest.raises(TypeError):  # Psi, the continuous pair and the weights are required
        DiscreteModel(F=np.eye(3), G=np.zeros(3), h=0.1, psi=np.eye(3))
    with pytest.raises(TypeError):
        DiscreteModel(F=np.eye(3), G=np.zeros(3), h=0.1, psi=np.eye(3), A=np.eye(3), B=np.zeros(3))


def test_model_carries_its_own_continuous_pair():
    p = MotorParams(fidelity="paper_literal")
    A, B = continuous_matrices(p)
    m = discretize(p, 0.11)
    np.testing.assert_array_equal(m.A, A)
    np.testing.assert_array_equal(m.B, B)
