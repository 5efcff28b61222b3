"""Series operator tests against independent oracles: mpmath scalar series,
mpmath's exponential of the augmented matrix (Van Loan, IEEE TAC 23, 1978),
scipy's scaling-and-squaring exponential, and composite Simpson quadrature.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from flexctl.matseries import SeriesConvergenceError, expm_via_phi, phi
from flexctl.plant import MotorParams, continuous_matrices

N_RANDOM = 50
A_REF, _ = continuous_matrices(MotorParams())


def phi_oracle(M):
    """(e^M - I) M^-1 via scipy's exponential; M must be invertible."""
    M = np.asarray(M, dtype=float)
    return np.linalg.solve(M, expm(M) - np.eye(M.shape[0]))


def augmented_phi_oracle(M, dps=30):
    """phi(M) as the top-right block of expm([[M, I], [0, 0]]); M may be singular.

    The exponential is mpmath's, in dps digits: scipy's expm takes a special
    branch for triangular input that loses accuracy when diagonal entries are
    close (expm([[0, 2, 8], [0, 1e-20, 8], [0, 0, 8]])[0, 1] comes out 0,
    not 2), and this block matrix is triangular whenever M is.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = M
    aug[:n, n:] = np.eye(n)
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(aug.tolist()))
        return np.array([[float(E[i, n + j]) for j in range(n)] for i in range(n)])


def scalar_phi_oracle(a, dps=50):
    """High-precision scalar series sum_i a^i/(i+1)!."""
    with mpmath.workdps(dps):
        return float(mpmath.nsum(lambda i: mpmath.mpf(a) ** i / mpmath.factorial(i + 1),
                                 [0, mpmath.inf]))


def simpson_integral_oracle(M, h, n=200):
    """Composite Simpson evaluation of the ZOH integral of e^(M tau)."""
    taus = np.linspace(0.0, h, 2 * n + 1)
    vals = np.stack([expm(M * t) for t in taus])
    dt = h / (2 * n)
    return dt / 3.0 * (vals[0] + vals[-1]
                       + 4.0 * vals[1:-1:2].sum(axis=0)
                       + 2.0 * vals[2:-1:2].sum(axis=0))


def random_matrices(seed, count, scale=5.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-scale, scale, size=(3, 3)) for _ in range(count)]


def test_phi_of_zero_is_identity():
    np.testing.assert_array_equal(phi(np.zeros((3, 3))), np.eye(3))


def test_phi_scalar_matches_high_precision_series():
    got = phi(np.array([[1.0]]))[0, 0]
    want = scalar_phi_oracle(1.0)
    assert want == pytest.approx(float(mpmath.e) - 1.0, abs=1e-12)  # closed form (e^a - 1)/a
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.7182818, abs=1e-7)


def test_phi_reference_motor_matches_expm_oracle():
    A, _ = continuous_matrices(MotorParams())
    M = A * 0.11
    err = np.max(np.abs(phi(M) - phi_oracle(M)))
    assert err / np.max(np.abs(phi_oracle(M))) < 1e-9


def test_expm_via_phi_zero():
    np.testing.assert_array_equal(expm_via_phi(np.zeros((3, 3))), np.eye(3))


def test_expm_via_phi_scalar():
    got = expm_via_phi(np.array([[-1.0]]))[0, 0]
    assert got == pytest.approx(float(mpmath.exp(-1)), abs=1e-12)
    assert got == pytest.approx(0.3678794, abs=1e-7)


def test_expm_via_phi_reference_motor():
    A, _ = continuous_matrices(MotorParams())
    M = A * 0.05
    want = expm(M)
    assert np.max(np.abs(expm_via_phi(M) - want)) / np.max(np.abs(want)) < 1e-9


def test_commutation_relation():
    for M in random_matrices(seed=1, count=N_RANDOM):
        ph = phi(M)
        err = np.max(np.abs(M @ ph - ph @ M))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(M)) ** 2)


def test_exponential_relation_against_scaling_squaring():
    for M in random_matrices(seed=2, count=N_RANDOM):
        want = expm(M)
        assert np.max(np.abs(expm_via_phi(M) - want)) / np.max(np.abs(want)) < 1e-8


def test_integral_relation_against_quadrature():
    rng = np.random.default_rng(3)
    for M in random_matrices(seed=4, count=10):
        h = float(rng.uniform(0.01, 0.5))
        want = simpson_integral_oracle(M, h)
        got = h * phi(M * h)
        assert np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300) < 1e-7


def test_similarity_relation():
    rng = np.random.default_rng(5)
    for M in random_matrices(seed=6, count=20):
        while True:
            T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
            if np.linalg.cond(T) < 100.0:
                break
        lhs = phi(np.linalg.solve(T, M @ T))
        rhs = np.linalg.solve(T, phi(M) @ T)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-8


def test_truncation_monotonicity():
    # norms <= 0.45 keep the direct-series path active so tol controls the error
    for M in random_matrices(seed=7, count=10, scale=0.45):
        errs = []
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            got = phi(M, tol)
            errs.append(np.max(np.abs(got - phi_oracle(M))))
        for coarse, fine in zip(errs[:-1], errs[1:]):
            assert fine <= coarse + 1e-15


def test_singular_argument_takes_the_doubling_path():
    M = np.diag([3.0, 2.0, 0.0])  # singular, and its norm is above the series limit
    got = phi(M)
    want = np.diag([(np.expm1(3.0)) / 3.0, (np.expm1(2.0)) / 2.0, 1.0])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def square_matrices(bound, max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=st.floats(-bound, bound)))


def singular_matrices(bound, max_n=4):
    """Products X @ Y with X n x (n-1) and Y (n-1) x n, so the rank is below n."""
    return st.integers(2, max_n).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, (n, n - 1), elements=st.floats(-bound, bound)),
        hnp.arrays(np.float64, (n - 1, n), elements=st.floats(-bound, bound)),
    )).map(lambda factors: factors[0] @ factors[1])


def assert_matches_augmented_oracle(M):
    want = augmented_phi_oracle(M)
    assert np.max(np.abs(phi(M) - want)) / np.max(np.abs(want)) < 1e-8


@settings(deadline=None)
@given(singular_matrices(5.0))
@example(np.array([[0.0, 100.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -50.0]]))
def test_singular_argument_matches_augmented_oracle(M):
    assert_matches_augmented_oracle(M)


@settings(deadline=None)
@given(square_matrices(100.0))
def test_nilpotent_argument_matches_augmented_oracle(A):
    assert_matches_augmented_oracle(np.triu(A, 1))


@settings(deadline=None)
@given(square_matrices(100.0))
def test_large_norm_argument_matches_augmented_oracle(M):
    assert_matches_augmented_oracle(M)


def test_non_convergence_raises():
    # the term budget runs out with the last term norm far above 1e-300
    with pytest.raises(SeriesConvergenceError):
        phi(0.4 * np.eye(3), 1e-300)


def test_overflowing_exponential_raises():
    with pytest.raises(OverflowError):
        phi(np.array([[2000.0]]))


def test_argument_just_below_overflow_stays_accurate():
    # e^709 is finite but 2^11 * e^709 / 709 is not, so the doubling must keep
    # P at the scale of phi; squaring up to e^709 costs about 1e-11 relative
    got = phi(np.array([[709.0]]))[0, 0]
    assert got == pytest.approx(np.expm1(709.0) / 709.0, rel=1e-10)


def test_large_stable_argument_stays_accurate():
    # decaying spectrum keeps e^M representable even at large norms
    got = phi(np.diag([-800.0, -1.0, -0.01]))
    want = np.diag([np.expm1(-800.0) / -800.0, np.expm1(-1.0) / -1.0, np.expm1(-0.01) / -0.01])
    np.testing.assert_allclose(got, want, rtol=1e-11)


def test_tol_validation():
    for tol in (0.0, -1e-12, float("nan")):
        with pytest.raises(ValueError):
            phi(np.eye(3), tol)
    np.testing.assert_array_equal(phi(np.zeros((3, 3)), float("inf")), np.eye(3))


def test_input_validation():
    with pytest.raises(ValueError):
        phi(np.ones((2, 3)))
    with pytest.raises(ValueError):
        phi(np.array([[np.inf]]))


@st.composite
def mixed_stacks(draw, max_k=6, max_n=4):
    """Stacks of one matrix size whose members have max-norms on both sides
    of the 0.5 series limit (so each gets its own scaling), with some
    members made singular by a zero column. Entries stay within 150, so the
    spectral radius of a member of size <= 4 stays below 600 and e^M finite."""
    n = draw(st.integers(1, max_n))
    members = []
    for _ in range(draw(st.integers(1, max_k))):
        scale = draw(st.sampled_from([0.05, 0.45, 3.0, 40.0, 150.0]))
        M = scale * draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
        if draw(st.booleans()):
            M[:, 0] = 0.0
        members.append(M)
    return np.stack(members)


MIXED_STACK = np.stack([np.diag([0.3, -0.1, 0.0]),               # no scaling
                        A_REF * 0.05, A_REF * 0.2,                 # s = 8 and s = 10
                        np.diag([3.0, 2.0, 0.0]),                  # singular, doubled
                        np.zeros((3, 3))])


@settings(deadline=None)
@given(mixed_stacks())
@example(MIXED_STACK)
@example(MIXED_STACK[1:2])
def test_stacked_phi_slices_equal_single_calls(S):
    got = phi(S)
    assert got.shape == S.shape
    for i, M in enumerate(S):
        assert np.array_equal(got[i], phi(M))


@settings(deadline=None)
@given(mixed_stacks())
@example(MIXED_STACK)
def test_stacked_expm_via_phi_slices_equal_single_calls(S):
    got = expm_via_phi(S)
    assert got.shape == S.shape
    for i, M in enumerate(S):
        assert np.array_equal(got[i], expm_via_phi(M))


def test_stacked_input_validation():
    good = np.stack([0.1 * np.eye(3), np.eye(3)])
    for shape in ((2, 2, 3), (0, 3, 3), (2, 2, 3, 3), (3,)):
        with pytest.raises(ValueError):
            phi(np.ones(shape))
    bad = good.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError):
        phi(bad)
    with pytest.raises(ValueError):
        expm_via_phi(bad)


def test_one_overflowing_member_raises():
    with pytest.raises(OverflowError):
        phi(np.array([[[1.0]], [[2000.0]], [[-3.0]]]))


def test_unscalable_norm_raises():
    # phi(-5e307) is representable, but the scaling 2^1024 it needs is not
    for M in (np.array([[-5e307]]), np.array([[[-1.0]], [[-5e307]]])):
        with pytest.raises(OverflowError):
            phi(M)
    assert phi(np.array([[-2e307]]))[0, 0] == pytest.approx(5e-308, rel=1e-12)


def test_stack_non_convergence_raises():
    # the zero member converges at once; the other does not within the budget
    with pytest.raises(SeriesConvergenceError):
        phi(np.stack([np.zeros((3, 3)), 0.4 * np.eye(3)]), 1e-300)
