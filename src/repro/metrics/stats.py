"""Summary statistics used across experiments and tests.

Small, dependency-light helpers: streaming mean/variance (Welford),
percentiles, and normal-approximation confidence intervals for means and
proportions.  The experiment harness reports these in its tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "RunningStats",
    "Summary",
    "summarize",
    "percentile",
    "mean_confidence_interval",
    "proportion_confidence_interval",
]

# Two-sided z critical values for the confidence levels we report.
_Z_VALUES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_for(confidence: float) -> float:
    try:
        return _Z_VALUES[round(confidence, 2)]
    except KeyError:
        raise ValueError(
            f"unsupported confidence level {confidence}; "
            f"choose one of {sorted(_Z_VALUES)}"
        ) from None


class RunningStats:
    """Streaming count/mean/variance/min/max via Welford's algorithm."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the statistics."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with < 2 observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"<RunningStats n={self.count} mean={self.mean:.4g} "
            f"sd={self.stdev:.4g}>"
        )


@dataclass(frozen=True)
class Summary:
    """One-shot summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float

    def row(self) -> Tuple[int, float, float, float, float, float, float, float]:
        """Tuple form for table printers."""
        return (
            self.count,
            self.mean,
            self.stdev,
            self.minimum,
            self.maximum,
            self.p50,
            self.p90,
            self.p99,
        )


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of ``values`` (raises on empty input)."""
    if len(values) == 0:
        raise ValueError("cannot summarize an empty sample")
    arr = np.asarray(values, dtype=float)
    return Summary(
        count=int(arr.size),
        mean=float(arr.mean()),
        stdev=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
    )


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        raise ValueError("cannot take a percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def mean_confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(mean, low, high)`` normal-approximation CI for the mean."""
    if len(values) == 0:
        raise ValueError("cannot compute a CI on an empty sample")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, mean, mean
    half = _z_for(confidence) * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, mean - half, mean + half


def proportion_confidence_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float, float]:
    """``(p, low, high)`` Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z = _z_for(confidence)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return p, max(0.0, center - half), min(1.0, center + half)
