"""Unit tests for streaming statistics and confidence intervals."""


import numpy as np
import pytest

from repro.metrics.stats import (
    RunningStats,
    mean_confidence_interval,
    percentile,
    proportion_confidence_interval,
    summarize,
)


class TestRunningStats:
    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.variance == pytest.approx(np.var(values, ddof=1))
        assert stats.minimum == 1.0
        assert stats.maximum == 9.0

    def test_single_value_has_zero_variance(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.variance == 0.0
        assert stats.stdev == 0.0


class TestSummarize:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_fields(self):
        values = list(range(1, 101))
        summary = summarize(values)
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.minimum == 1
        assert summary.maximum == 100
        assert summary.p90 > summary.p50

    def test_row_has_eight_fields(self):
        assert len(summarize([1.0, 2.0]).row()) == 8


class TestPercentile:
    def test_basic(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)


class TestConfidenceIntervals:
    def test_mean_ci_brackets_mean(self):
        values = [10.0, 12.0, 9.0, 11.0, 10.5]
        mean, low, high = mean_confidence_interval(values)
        assert low <= mean <= high
        assert mean == pytest.approx(np.mean(values))

    def test_mean_ci_single_value_collapses(self):
        mean, low, high = mean_confidence_interval([5.0])
        assert mean == low == high == 5.0

    def test_mean_ci_wider_at_higher_confidence(self):
        values = list(np.linspace(0, 10, 30))
        _m, low95, high95 = mean_confidence_interval(values, 0.95)
        _m, low99, high99 = mean_confidence_interval(values, 0.99)
        assert (high99 - low99) > (high95 - low95)

    def test_mean_ci_rejects_unknown_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=0.42)

    def test_proportion_ci_bounds(self):
        p, low, high = proportion_confidence_interval(8, 10)
        assert p == pytest.approx(0.8)
        assert 0.0 <= low < p < high <= 1.0

    def test_proportion_ci_extremes_stay_in_unit_interval(self):
        _p, low, high = proportion_confidence_interval(0, 10)
        assert low == 0.0
        _p, low, high = proportion_confidence_interval(10, 10)
        assert high == 1.0

    def test_proportion_ci_validation(self):
        with pytest.raises(ValueError):
            proportion_confidence_interval(5, 0)
        with pytest.raises(ValueError):
            proportion_confidence_interval(11, 10)
