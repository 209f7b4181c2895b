import math

import pytest

from stats import MIN_SAMPLES, TAIL_Q, TAIL_SAMPLES, Tally, percentile, rank, samples_beyond


def test_p90_keeps_ten_samples_beyond_from_min_samples_on():
    assert MIN_SAMPLES == 100
    assert samples_beyond(MIN_SAMPLES, TAIL_Q) == TAIL_SAMPLES
    assert samples_beyond(MIN_SAMPLES - 1, TAIL_Q) < TAIL_SAMPLES
    for n in range(MIN_SAMPLES, 2000):
        assert samples_beyond(n, TAIL_Q) >= TAIL_SAMPLES


def test_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(reversed(values), 0.9) == 90
    assert rank(1, 0.9) == 0
    with pytest.raises(ValueError):
        rank(0, 0.5)


def test_tally_counts_failures_against_attempts():
    t = Tally()
    t.add(0.010, True, 1e-12)
    t.add(0.020, False, None)
    t.add(0.030, True, 1e-9)
    t.fail_late()
    assert t.attempted == 3
    assert t.failed == 2
    assert t.fail_frac == pytest.approx(2 / 3)
    assert t.latencies == [0.010, 0.020, 0.030]


def test_accuracy_counts_window_errors_only():
    t = Tally()
    for k in range(100):
        t.add(0.01, True, 10.0 ** -(14 - k // 10))  # ten each of 1e-14 .. 1e-5
    t.add(0.01, True, 1.0, in_window=False)  # outside the fixed window
    t.add(0.01, False, None)  # a failed check has no error value
    assert len(t.errors) == 100
    assert t.digits(1.0) == pytest.approx(5.0)
    assert t.digits(0.9) == pytest.approx(6.0)
    assert t.digits(0.5) == pytest.approx(10.0)


def test_accuracy_is_finite_when_every_error_is_zero():
    t = Tally()
    t.add(0.01, True, 0.0)
    assert math.isfinite(t.digits(1.0))
