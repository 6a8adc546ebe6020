import statistics

import pytest

from summary import median, quartiles, spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_match_statistics_quantiles():
    values = [5.1, 4.9, 5.3, 5.0, 5.2, 4.8, 5.4, 5.05, 4.95, 5.15]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q3)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_single_value_has_zero_spread():
    assert quartiles([2.5]) == (2.5, 2.5)
    assert spread([2.5]) == 0.0
