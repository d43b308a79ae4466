"""Tests for the calibration analysis."""

import dataclasses

import pytest

from repro.analysis.calibration import (
    brier_pairs,
    bucket_pairs,
    prediction_pairs,
)
from repro.gateway.handlers.timing_fault import ReplyOutcome


def _outcome(prediction, timely, bootstrap=False):
    meta = {"bootstrap": bootstrap}
    if prediction is not None:
        meta["full_probability"] = prediction
    return ReplyOutcome(
        value=0,
        response_time_ms=100.0,
        timely=timely,
        timed_out=False,
        replica="r1",
        redundancy=2,
        request_id=1,
        t0_ms=0.0,
        t1_ms=0.0,
        t4_ms=100.0,
        perf=None,
        decision_meta=meta,
    )


class TestCalibrationTable:
    def test_buckets_by_prediction(self):
        outcomes = (
            [_outcome(0.95, True)] * 9
            + [_outcome(0.95, False)]
            + [_outcome(0.15, False)] * 8
            + [_outcome(0.15, True)] * 2
        )
        buckets = bucket_pairs(prediction_pairs(outcomes), num_buckets=10)
        assert len(buckets) == 2
        low, high = buckets
        assert low.low == pytest.approx(0.1)
        assert low.observed_timely == pytest.approx(0.2)
        assert high.observed_timely == pytest.approx(0.9)

    def test_prediction_of_one_lands_in_top_bucket(self):
        buckets = bucket_pairs(prediction_pairs([_outcome(1.0, True)]), num_buckets=10)
        assert len(buckets) == 1
        assert buckets[0].high == pytest.approx(1.0)

    def test_bootstrap_outcomes_skipped(self):
        outcomes = [_outcome(0.9, True, bootstrap=True)]
        assert bucket_pairs(prediction_pairs(outcomes)) == []

    def test_missing_prediction_skipped(self):
        assert bucket_pairs(prediction_pairs([_outcome(None, True)])) == []

    def test_overconfidence_sign(self):
        bucket = bucket_pairs(
            prediction_pairs([_outcome(0.95, False)] * 3 + [_outcome(0.95, True)])
        )[0]
        assert bucket.overconfidence > 0  # promised 0.95, delivered 0.25

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            bucket_pairs([], num_buckets=0)
        (whole,) = bucket_pairs([(0.5, True)], num_buckets=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            whole.count = 2

    def test_a_bucket_holds_its_low_edge_and_not_its_high_one(self):
        pairs = [(0.25, True), (0.375, False), (0.5, False)]
        rows = [
            (b.low, b.count, b.mean_predicted, b.observed_timely, b.overconfidence)
            for b in bucket_pairs(pairs, num_buckets=4)
        ]
        assert rows == [(0.25, 2, 0.3125, 0.5, -0.1875), (0.5, 1, 0.5, 0.0, 0.5)]
        assert bucket_pairs([(0.95, True)])[0].low == pytest.approx(0.9)  # ten by default

    def test_an_outcome_without_a_bootstrap_flag_is_model_backed(self):
        outcome = _outcome(0.5, True)
        del outcome.decision_meta["bootstrap"]
        assert prediction_pairs([outcome]) == [(0.5, True)]


class TestBrierScore:
    def test_perfect_predictions(self):
        outcomes = [_outcome(1.0, True), _outcome(0.0, False)]
        assert brier_pairs(prediction_pairs(outcomes)) == pytest.approx(0.0)

    def test_coin_flip_predictions(self):
        outcomes = [_outcome(0.5, True), _outcome(0.5, False)]
        assert brier_pairs(prediction_pairs(outcomes)) == pytest.approx(0.25)

    def test_no_scorable_outcomes_raises(self):
        with pytest.raises(ValueError):
            brier_pairs(prediction_pairs([_outcome(None, True)]))
