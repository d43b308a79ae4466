"""Unit tests for QoS specifications and timing-failure accounting."""

import pytest

from repro.core.qos import MIN_SAMPLES, QoSSpec, TimingFailureStats


class TestQoSSpec:
    def test_valid_spec(self):
        spec = QoSSpec("search", deadline_ms=150.0, min_probability=0.9)
        assert spec.max_failure_probability == pytest.approx(0.1)

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            QoSSpec("s", deadline_ms=0.0, min_probability=0.5)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), -1.0])
    def test_deadline_must_be_finite_and_positive(self, deadline):
        with pytest.raises(ValueError, match="finite and > 0"):
            QoSSpec("s", deadline, 0.5)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            QoSSpec("s", deadline_ms=10.0, min_probability=1.5)

    def test_zero_probability_is_legal(self):
        # The paper's worst-case configuration (§6).
        spec = QoSSpec("s", deadline_ms=10.0, min_probability=0.0)
        assert spec.max_failure_probability == 1.0

    def test_specs_are_immutable(self):
        spec = QoSSpec("s", 100.0, 0.9)
        with pytest.raises(AttributeError):
            spec.deadline_ms = 50.0


class TestTimingFailureStats:
    def test_record_classifies_by_deadline(self):
        stats = TimingFailureStats()
        assert stats.record(90.0, deadline_ms=100.0) is False
        assert stats.record(110.0, deadline_ms=100.0) is True
        assert stats.responses == 2
        assert stats.timing_failures == 1
        assert stats.timely_responses == 1

    def test_boundary_response_is_timely(self):
        stats = TimingFailureStats()
        assert stats.record(100.0, deadline_ms=100.0) is False

    def test_observed_probability_before_any_response(self):
        assert TimingFailureStats().observed_timely_probability == 1.0

    def test_observed_probabilities_sum_to_one(self):
        stats = TimingFailureStats()
        for tr in (50.0, 150.0, 150.0, 50.0):
            stats.record(tr, deadline_ms=100.0)
        assert stats.observed_timely_probability == pytest.approx(0.5)
        assert stats.timing_failures / stats.responses == pytest.approx(0.5)

    def test_violation_needs_min_samples(self):
        spec = QoSSpec("s", 100.0, 0.9)
        stats = TimingFailureStats()
        for _ in range(MIN_SAMPLES - 1):
            stats.record(200.0, deadline_ms=100.0)  # all failures
        assert not stats.violates(spec)  # still warming up
        stats.record(200.0, deadline_ms=100.0)
        assert stats.violates(spec)

    def test_no_violation_when_within_budget(self):
        spec = QoSSpec("s", 100.0, 0.5)
        stats = TimingFailureStats()
        for tr in (50.0, 50.0, 50.0, 150.0) * 3:
            stats.record(tr, deadline_ms=100.0)
        assert not stats.violates(spec)  # 75 % timely >= 50 %

    def test_reset_clears_counters(self):
        stats = TimingFailureStats()
        stats.record(200.0, deadline_ms=100.0)
        stats.reset()
        assert stats.responses == 0
        assert stats.timing_failures == 0
