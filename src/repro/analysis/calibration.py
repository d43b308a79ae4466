"""Calibration analysis of the Equation 1 model.

For every non-bootstrap request the dynamic policy records the predicted
probability ``P_K(t)`` of a timely response in the decision metadata.
Comparing these predictions against the observed outcome — bucketed by
predicted probability — measures how well the paper's online model is
calibrated, and where its independence assumption (response times of
different replicas are independent) breaks down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..gateway.handlers.timing_fault import ReplyOutcome

__all__ = [
    "CalibrationBucket",
    "prediction_pairs",
    "bucket_pairs",
    "brier_pairs",
]


@dataclass(frozen=True)
class CalibrationBucket:
    """Requests whose predicted probability fell in one interval."""

    low: float
    high: float
    count: int
    mean_predicted: float
    observed_timely: float

    @property
    def overconfidence(self) -> float:
        """Predicted minus observed: positive = the model promised more."""
        return self.mean_predicted - self.observed_timely


def _prediction(outcome: ReplyOutcome) -> Optional[float]:
    meta = outcome.decision_meta
    if meta.get("bootstrap", False):
        return None  # no model behind bootstrap selections
    prediction = meta.get("full_probability")
    if prediction is None:
        return None
    return float(prediction)


def prediction_pairs(outcomes: Iterable[ReplyOutcome]) -> List[Tuple[float, bool]]:
    """``(predicted P_K(t), timely)`` for every model-backed outcome.

    Requests without a model prediction (bootstrap selections, baseline
    policies) are skipped.
    """
    pairs = []
    for outcome in outcomes:
        prediction = _prediction(outcome)
        if prediction is not None:
            pairs.append((prediction, outcome.timely))
    return pairs


def bucket_pairs(
    pairs: Sequence[Tuple[float, bool]], num_buckets: int = 10
) -> List[CalibrationBucket]:
    """Bucket ``(prediction, timely)`` pairs by predicted probability and
    compare each bucket with its observed timely frequency.

    Empty buckets are omitted.
    """
    if num_buckets < 1:
        raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
    buckets = []
    width = 1.0 / num_buckets
    for index in range(num_buckets):
        low = index * width
        high = low + width
        members = [
            (p, timely)
            for p, timely in pairs
            # The top bucket includes exactly-1.0 predictions (half-open
            # bucketing would drop them); an exact sentinel, not a grid
            # comparison.
            if low <= p < high
            or (index == num_buckets - 1 and p == 1.0)  # repro-lint: disable=RL003 (exact boundary sentinel)
        ]
        if not members:
            continue
        buckets.append(
            CalibrationBucket(
                low=low,
                high=high,
                count=len(members),
                mean_predicted=sum(p for p, _t in members) / len(members),
                observed_timely=(
                    sum(1 for _p, timely in members if timely) / len(members)
                ),
            )
        )
    return buckets


def brier_pairs(pairs: Sequence[Tuple[float, bool]]) -> float:
    """Mean squared error of ``(prediction, timely)`` pairs.

    0 is perfect; 0.25 is the score of always predicting 0.5.
    """
    if not pairs:
        raise ValueError("no model-backed outcomes to score")
    errors = [(p - (1.0 if timely else 0.0)) ** 2 for p, timely in pairs]
    return sum(errors) / len(errors)
