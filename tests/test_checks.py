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


@pytest.mark.xfail(strict=True, reason="the solve-based phi misses its own commutation "
                                       "check here (2.0e-10 > 1e-10)")
def test_identity_suite_passes_on_hard_seed():
    results = run_identity_checks(seed=3530056913)
    assert all(r.passed for r in results), [(r.name, r.max_error) for r in results if not r.passed]
