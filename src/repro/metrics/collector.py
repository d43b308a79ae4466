"""Metric collection keyed by name and optional labels.

A :class:`MetricsCollector` is the run-wide sink for scalar observations
(latencies, redundancy levels, queue lengths) and counters (timing
failures, crashes).  It is intentionally simple — a dict of
:class:`~repro.metrics.stats.RunningStats` plus raw sample retention for
percentile computation — because experiments post-process everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .stats import RunningStats, Summary, summarize

__all__ = ["MetricsCollector"]

LabelSet = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Dict[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class MetricsCollector:
    """Accumulates named observations and counters during a run."""

    def __init__(self, keep_samples: bool = True):
        self.keep_samples = keep_samples
        self._stats: Dict[Tuple[str, LabelSet], RunningStats] = {}
        self._samples: Dict[Tuple[str, LabelSet], List[float]] = {}
        self._counters: Dict[Tuple[str, LabelSet], int] = {}

    # -- observations ------------------------------------------------------
    def observe(
        self, name: str, value: float, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Record one scalar observation of metric ``name``."""
        key = (name, _labels_key(labels))
        stats = self._stats.get(key)
        if stats is None:
            stats = RunningStats()
            self._stats[key] = stats
        stats.add(value)
        if self.keep_samples:
            self._samples.setdefault(key, []).append(value)

    # -- counters ---------------------------------------------------------
    def increment(
        self, name: str, amount: int = 1, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Bump counter ``name`` by ``amount``."""
        key = (name, _labels_key(labels))
        self._counters[key] = self._counters.get(key, 0) + amount

    # -- queries ----------------------------------------------------------
    def stats(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> RunningStats:
        """Running statistics for metric ``name`` (empty stats if unseen)."""
        return self._stats.get((name, _labels_key(labels)), RunningStats())

    def samples(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> List[float]:
        """Raw retained samples (empty when ``keep_samples=False``)."""
        return list(self._samples.get((name, _labels_key(labels)), []))

    def summary(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Summary:
        """Percentile summary of the retained samples for ``name``."""
        return summarize(self.samples(name, labels))

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        """All label combinations observed for metric ``name``."""
        found = []
        for metric, labels in list(self._stats) + list(self._counters):
            if metric == name and dict(labels) not in found:
                found.append(dict(labels))
        return found

    def clear(self) -> None:
        """Drop everything collected so far."""
        self._stats.clear()
        self._samples.clear()
        self._counters.clear()

    def __repr__(self) -> str:
        return (
            f"<MetricsCollector metrics={len(self._stats)} "
            f"counters={len(self._counters)}>"
        )
