import numpy as np
import pytest
from scipy.linalg import expm

from flexctl import checks
from flexctl.checks import integral_oracle, run_identity_checks
from flexctl.plant import MotorParams, continuous_matrices


def test_identity_suite_passes():
    results = run_identity_checks(seed=0)
    assert len(results) == 5
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results if not r.passed]


def test_degraded_series_tolerance_fails_the_suite():
    results = run_identity_checks(seed=0, tol=1e-1)
    assert not all(r.passed for r in results)


def test_degraded_series_tolerance_fails_the_integral_check():
    # a wrong phi must show against the factored quadrature too
    results = {r.name: r for r in run_identity_checks(seed=0, tol=1e-1)}
    integ = results["integral of e^(M tau) = h*phi(M h)"]
    assert integ.tolerance == 1e-7
    assert integ.max_error == pytest.approx(1.97e-2, rel=1e-2)
    assert not integ.passed


@pytest.mark.parametrize("trials, calls, slices", [(50, 30, 411), (0, 6, 97)])
def test_identity_suite_asks_scipy_for_a_fixed_number_of_exponentials(
        monkeypatch, trials, calls, slices):
    # one call per batch; an integral needs 11 slices (its panel width and
    # 10 node offsets) whatever its panel count, not 10 per panel
    counts = [0, 0]
    scipy_oracle = checks.expm

    def counted(a):
        counts[0] += 1
        counts[1] += a.shape[0] if a.ndim == 3 else 1
        return scipy_oracle(a)

    monkeypatch.setattr(checks, "expm", counted)
    run_identity_checks(seed=0, trials=trials)
    assert counts == [calls, slices]


# (index of the expm call to corrupt, the check it feeds): call 0 is the
# exponential check's stack, calls 1-28 the 28 integrals, call 29 the
# discretize check's periods
NAN_TARGETS = [(0, "exponential"), (2, "integral"), (29, "discretize")]


@pytest.mark.parametrize("call, check", NAN_TARGETS)
def test_a_nan_in_a_later_slice_fails_its_check(monkeypatch, call, check):
    seen = [0]
    scipy_oracle = checks.expm

    def corrupted(a):
        out = scipy_oracle(a)
        if seen[0] == call:
            out[1, 0, 0] = np.nan  # never the first slice or the first integral
        seen[0] += 1
        return out

    monkeypatch.setattr(checks, "expm", corrupted)
    results = run_identity_checks(seed=0)
    assert seen[0] == 30
    for r in results:
        if r.name.startswith(check):
            assert np.isnan(r.max_error) and not r.passed
        else:
            assert r.passed, (r.name, r.max_error)


def reference_integral(M, h):
    """The quadrature with one single-matrix expm call per node, summed in
    panel-then-node order: the per-node form the factored oracle rewrites."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    panels = max(4, int(np.ceil(np.max(np.abs(M)) * h / 2.0)))
    edges = np.linspace(0.0, h, panels + 1)
    half = 0.5 * (h / panels)
    total = np.zeros_like(np.asarray(M, dtype=float))
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        for t, wgt in zip(nodes, weights):
            total += wgt * expm(M * (mid + half * t))
    return total * half


def oracle_cases():
    rng = np.random.default_rng(20)
    cases = [(rng.uniform(-5.0, 5.0, size=(3, 3)), float(rng.uniform(0.01, 0.5)))
             for _ in range(30)]
    A, _ = continuous_matrices(MotorParams())
    cases += [(A * s, 1.0) for s in (0.05, 0.11, 0.2)]  # 33, 72 and 130 panels
    return cases + [(np.zeros((3, 3)), 0.3)]


def factored_reference(M, h):
    """The factored rule with one single-matrix expm call for the panel
    width's E and per node offset, summed in the oracle's order; the stacked
    oracle must give the same bits."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    panels = max(4, int(np.ceil(np.max(np.abs(M)) * h / 2.0)))
    width = h / panels
    half = 0.5 * width
    inner = np.zeros_like(np.asarray(M, dtype=float))
    for t, wgt in zip(nodes, weights):
        inner += wgt * expm(M * (half * (1.0 + t)))
    return checks.power_sum(expm(M * width), panels) @ (inner * half)


@pytest.mark.parametrize("M, h", oracle_cases())
def test_integral_oracle_matches_per_node_reference_bitwise(M, h):
    # the stacked call gives each exponential the bits of its single call
    assert np.array_equal(integral_oracle(M, h), factored_reference(M, h))


@pytest.mark.parametrize("M, h", oracle_cases())
def test_integral_oracle_is_within_1e_13_of_per_node_reference(M, h):
    # the factored sum is the same quadrature in exact arithmetic; rounding
    # alone separates them (worst 9.7e-15 relative over these cases)
    want = reference_integral(M, h)
    got = integral_oracle(M, h)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13


def test_power_sum_matches_a_left_to_right_sum_for_every_panel_count():
    # doubling reorders the sum; over these cases the worst gap is ~1.6e-14
    for M, h in oracle_cases():
        for panels in range(4, 201):
            E = expm(M * (h / panels))
            want, P = np.zeros((3, 3)), np.eye(3)
            for _ in range(panels):
                want += P
                P = P @ E
            got = checks.power_sum(E, panels)
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-13, (h, panels)


def test_power_sum_counts_every_power_once():
    # E = 2 I: the sum of 2^p for p < n is 2^n - 1, exact while it fits 53 bits
    for n in range(1, 54):
        assert np.array_equal(checks.power_sum(2.0 * np.eye(3), n), (2.0 ** n - 1) * np.eye(3))


def test_integral_oracle_does_not_use_the_series(monkeypatch):
    # the oracle must stay independent of the phi it checks
    def no_phi(*args, **kwargs):
        raise AssertionError("integral_oracle called phi")

    monkeypatch.setattr(checks, "phi", no_phi)
    for M, h in oracle_cases():
        assert np.isfinite(integral_oracle(M, h)).all()


def test_batched_draws_equal_one_at_a_time_rejection():
    def one_at_a_time(rng, k):
        kept, drawn = [], 0
        while len(kept) < k:
            T = np.eye(3) + rng.uniform(-0.5, 0.5, size=(3, 3))
            drawn += 1
            if np.linalg.cond(T) < 100.0:
                kept.append(T)
        return np.stack(kept), drawn

    # PCG64(75)'s 12th candidate has cond ~1.3e3 and is rejected
    loop_rng = np.random.Generator(np.random.PCG64(75))
    want, drawn = one_at_a_time(loop_rng, 25)
    assert drawn > 25
    batch_rng = np.random.Generator(np.random.PCG64(75))
    assert np.array_equal(checks._well_conditioned(batch_rng, 25), want)
    assert batch_rng.uniform() == loop_rng.uniform()


# derived seeds (benchmark seed, index) where the earlier phi, which rebuilt
# phi(M) by solving M*phi(M) = e^M - I, missed the commutation check
# (tolerance 1e-10) by the error shown
HARD_SEEDS = [
    2966626845,  # (2, 121): 3.8e-10
    3530056913,  # (11, 80): 2.0e-10
    2662395440,  # (11, 115): 4.5e-10
    2637905530,  # (22, 47): 1.3e-9
    4293332209,  # (22, 56): 2.3e-10
    2878070603,  # (30, 126): 1.5e-10
    877707997,   # (35, 88): 2.7e-10
    1362587956,  # (38, 127): 5.4e-9
    975501656,   # (40, 19): 2.6e-10
    4264491266,  # (51, 18): 1.4e-10
    292216036,   # (54, 78): 1.0e-10
    306051596,   # (57, 117): 1.1e-10
    2946643738,  # (60, 11): 1.4e-10
    336775819,   # (67, 22): 1.4e-9
    1179697361,  # (67, 139): 1.4e-10
    3660901974,  # (76, 95): 2.4e-10
    2880925889,  # (77, 70): 3.3e-10
    1911631334,  # (87, 16): 7.4e-9
]


@pytest.mark.parametrize("seed", HARD_SEEDS)
def test_identity_suite_passes_on_hard_seed(seed):
    results = run_identity_checks(seed=seed)
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results if not r.passed]
