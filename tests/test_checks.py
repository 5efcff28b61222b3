import pytest

from flexctl.checks import run_identity_checks
from flexctl.matseries import SeriesOptions


def test_identity_suite_passes():
    results = run_identity_checks(seed=0)
    assert len(results) == 5
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results if not r.passed]


def test_degraded_series_tolerance_fails_the_suite():
    results = run_identity_checks(seed=0, options=SeriesOptions(tol=1e-1))
    assert not all(r.passed for r in results)


# benchmark-derived seeds (workload seed, index) -> derived seed where the
# solve-based phi misses its own commutation check (tolerance 1e-10)
HARD_SEEDS = [
    3530056913,  # (11, 80): 2.0e-10
    292216036,   # (54, 78): 1.0e-10
    3660901974,  # (76, 95): 2.4e-10
    2637905530,  # (22, 47): 1.3e-9
]


@pytest.mark.xfail(strict=True, reason="the solve-based phi misses its own commutation "
                                       "check on these seeds")
@pytest.mark.parametrize("seed", HARD_SEEDS)
def test_identity_suite_passes_on_hard_seed(seed):
    results = run_identity_checks(seed=seed)
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results if not r.passed]
