import numpy as np
import pytest

from flexctl.scheduler import Scheduler, ScheduleSpec


def test_fixed_mode_always_emits_h_min():
    sched = Scheduler(ScheduleSpec(h_min=0.11, h_max=0.2, mode="fixed"))
    assert [sched.next_period() for _ in range(50)] == [0.11] * 50


def test_same_seed_same_sequence():
    a, b = Scheduler(ScheduleSpec(seed=42)), Scheduler(ScheduleSpec(seed=42))
    assert [a.next_period() for _ in range(200)] == [b.next_period() for _ in range(200)]


def test_different_seed_different_sequence():
    a, b = Scheduler(ScheduleSpec(seed=1)), Scheduler(ScheduleSpec(seed=2))
    assert [a.next_period() for _ in range(20)] != [b.next_period() for _ in range(20)]


def test_per_step_uniform_statistics():
    sched = Scheduler(ScheduleSpec(h_min=0.05, h_max=0.2, seed=123, mode="per_step"))
    draws = np.array([sched.next_period() for _ in range(10_000)])
    assert np.all((draws >= 0.05) & (draws <= 0.2))
    assert abs(draws.mean() - 0.125) < 0.005


def test_random_hold_structure():
    spec = ScheduleSpec(h_min=0.05, h_max=0.2, seed=5, hold_max=10, mode="random_hold")
    sched = Scheduler(spec)
    draws = [sched.next_period() for _ in range(500)]
    assert all(0.05 <= h <= 0.2 for h in draws)
    # run lengths of identical periods never exceed hold_max; holds do occur
    runs = []
    length = 1
    for prev, cur in zip(draws[:-1], draws[1:]):
        if cur == prev:
            length += 1
        else:
            runs.append(length)
            length = 1
    runs.append(length)
    assert max(runs) <= spec.hold_max
    assert max(runs) > 1


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(h_min=0.3, h_max=0.2)
    with pytest.raises(ValueError):
        ScheduleSpec(h_min=1e-6, h_max=0.2)  # below the sampling floor
    with pytest.raises(ValueError):
        ScheduleSpec(h_max=np.inf)  # the uniform draw would overflow
    with pytest.raises(ValueError):
        ScheduleSpec(h_min=np.inf, h_max=np.inf)
    with pytest.raises(ValueError):
        ScheduleSpec(hold_max=0)
    with pytest.raises(ValueError, match="hold_max"):
        ScheduleSpec(hold_max=2**63)  # beyond the int64 draw of the hold length
    with pytest.raises(ValueError):
        ScheduleSpec(mode="sometimes")
    with pytest.raises(ValueError):
        ScheduleSpec(seed=-1)
    with pytest.raises(ValueError):
        ScheduleSpec(seed=2**64)


def test_largest_hold_max_is_drawn():
    # the hold length is drawn from [1, hold_max] as an int64
    spec = ScheduleSpec(hold_max=2**63 - 1, seed=1)
    sched = Scheduler(spec)
    periods = [sched.next_period() for _ in range(5)]
    assert all(spec.h_min <= h <= spec.h_max for h in periods)
