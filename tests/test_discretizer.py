import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from flexctl.controller import EPS_H
from flexctl.discretizer import DiscreteModel, ModelStack, discretize, discretize_periods
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


def stack_fields(k=3):
    """Valid ModelStack fields for k periods."""
    return dict(F=np.tile(np.eye(3), (k, 1, 1)), G=np.zeros((k, 3)),
                psi=np.tile(np.eye(3), (k, 1, 1)), h=np.full(k, 0.1), A=np.eye(3),
                B=np.zeros(3), weights=np.ones(3))


def test_model_validation():
    fields = stack_fields()
    ModelStack(**fields)
    for i in range(3):  # every slot of h, by the bad value
        for bad in (0.0, -0.1, np.nan):
            h = fields["h"].copy()
            h[i] = bad
            with pytest.raises(ValueError, match="h must be > 0"):
                ModelStack(**{**fields, "h": h})
    for name in ("F", "G", "psi"):  # NaN in one slice only
        for i in range(3):
            value = fields[name].copy()
            value[i].flat[-1] = np.nan
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ModelStack(**{**fields, name: value})
    for name in ("A", "B", "weights"):  # the shared arrays
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ModelStack(**{**fields, name: np.full_like(fields[name], np.nan)})
    with pytest.raises(TypeError):  # Psi, the continuous pair and the weights are required
        ModelStack(F=fields["F"], G=fields["G"], h=fields["h"], psi=fields["psi"])
    with pytest.raises(TypeError):
        ModelStack(F=fields["F"], G=fields["G"], h=fields["h"], psi=fields["psi"],
                   A=np.eye(3), B=np.zeros(3))
    # the per-period view is a plain record, never checked again
    assert not hasattr(DiscreteModel, "__post_init__")
    with pytest.raises(TypeError):
        DiscreteModel(F=np.eye(3), G=np.zeros(3), h=0.1, psi=np.eye(3))


def test_infinite_period_raises_without_a_warning():
    # A h holds 0 * inf, a NaN; phi refuses it before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            discretize(MotorParams(), np.inf)


def test_stack_views_are_the_single_period_models():
    # held and fresh periods, and a standard period below the floor EPS_H
    p = MotorParams()
    periods = [0.11, 0.05, 0.11, 0.173, 0.05, 5e-5, 0.2, 0.173]
    assert min(periods) < EPS_H
    stack = discretize_periods(p, periods)
    assert len(stack) == len(periods)
    for i, (h, iterated) in enumerate(zip(periods, stack, strict=True)):
        view, alone = stack[i], discretize(p, h)
        assert type(view.h) is float and view.h == h
        assert type(alone.h) is float
        for name in DiscreteModel._fields:
            want = np.asarray(getattr(alone, name))
            for got in (np.asarray(getattr(view, name)), np.asarray(getattr(iterated, name))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (i, name)
    assert stack.h.tolist() == periods


def test_model_carries_its_own_continuous_pair():
    p = MotorParams(fidelity="paper_literal")
    A, B = continuous_matrices(p)
    m = discretize(p, 0.11)
    np.testing.assert_array_equal(m.A, A)
    np.testing.assert_array_equal(m.B, B)
