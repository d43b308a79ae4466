"""The per-decision probability record (``decision.meta["probabilities"]``).

Clients and the lifecycle auditor keep every request record, so the
record's size is paid once per request.  ``ProbabilityRow`` is one float64
array over a name → slot index shared by every decision over the same
replica list; these tests hold it to that size and to the reads of the
``dict(zip(replicas, probs.tolist()))`` it replaces.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.qos import QoSSpec
from repro.core.repository import InformationRepository
from repro.core.selection import (
    DynamicSelectionPolicy,
    ProbabilityRow,
    SelectionContext,
)

FLEET = 1024


class FixedEstimator:
    """Answers ``batch_probability_by`` with the same array every call."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def batch_probability_by(self, replicas, deadline_ms):
        return self.values


class Discounts:
    """A health view that quarantines nobody and discounts by name."""

    def __init__(self, discounts):
        self.discounts = discounts

    def is_quarantined(self, name):
        return False

    def discount(self, name):
        return self.discounts[name]


def context(replicas, estimator, health=None):
    return SelectionContext(
        replicas=list(replicas),
        estimator=estimator,
        qos=QoSSpec("svc", 100.0, 0.9),
        now_ms=0.0,
        rng=np.random.default_rng(0),
        health=health,
    )


def fleet(n):
    names = [f"r{i:04d}" for i in range(n)]
    # Fixed floats with long mantissas, none of them 0 or 1.
    values = [0.05 + 0.9 * ((i * 0.6180339887498949) % 1.0) for i in range(n)]
    return names, values


def bits(values):
    return [float(v).hex() for v in values]


def loaded_repository():
    repo = InformationRepository(window_size=5)
    for name, base in (("r1", 60.0), ("r2", 85.0), ("r3", 95.0)):
        for step in range(5):
            repo.record_performance(name, base + 9.0 * step, 0.0, 0, now_ms=0.0)
        repo.record_gateway_delay(name, 3.0, now_ms=0.0)
    return repo


def test_a_kept_decision_costs_its_array_not_a_dict():
    names, values = fleet(FLEET)
    policy = DynamicSelectionPolicy(fixed_overhead_ms=0.0)
    ctx = context(names, FixedEstimator(values))
    policy.decide(ctx)  # builds the replica list's shared index
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [policy.decide(ctx) for _ in range(100)]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 100
    assert retained / len(kept) <= 8 * FLEET + 2048


def test_a_read_is_the_dict_it_replaces_bit_for_bit():
    names, values = fleet(64)
    discounts = {name: 1.0 - (i % 5) / 7.0 for i, name in enumerate(names)}
    decision = DynamicSelectionPolicy(fixed_overhead_ms=0.0).decide(
        context(names, FixedEstimator(values), Discounts(discounts))
    )
    row = decision.meta["probabilities"]
    probs = np.asarray(values) * np.asarray([discounts[n] for n in names])
    expected = dict(zip(names, probs.tolist()))

    assert isinstance(row, ProbabilityRow)
    assert list(row) == names
    assert len(row) == len(names)
    assert bits(row[name] for name in names) == bits(probs.tolist())
    assert all(type(row[name]) is float for name in names)
    assert row == expected and expected == row
    assert row != {**expected, names[0]: 0.0}
    assert repr(row) == repr(expected)
    assert "nobody" not in row and row.get("nobody") is None
    with pytest.raises(KeyError):
        row["nobody"]
    # Two references and nothing per instance beside them.
    assert not hasattr(row, "__dict__")


def test_duplicate_names_read_as_the_dict_did():
    row = ProbabilityRow({"a": 2, "b": 1}, np.array([0.1, 0.2, 0.3]))
    assert row == dict(zip(["a", "b", "a"], [0.1, 0.2, 0.3]))
    assert list(row) == ["a", "b"]


def test_a_health_discounted_decision_records_the_discounted_values():
    names = ["r1", "r2", "r3"]
    estimator = FixedEstimator([0.8, 0.6, 0.4])
    decision = DynamicSelectionPolicy(fixed_overhead_ms=0.0).decide(
        context(names, estimator, Discounts({"r1": 0.5, "r2": 1.0, "r3": 0.25}))
    )
    assert decision.meta["probabilities"] == {"r1": 0.4, "r2": 0.6, "r3": 0.1}
    # The estimator's own values are not discounted in place.
    assert estimator.values.tolist() == [0.8, 0.6, 0.4]


def test_an_earlier_record_survives_later_decisions_and_writes():
    estimator = FixedEstimator([0.8, 0.6, 0.4])
    policy = DynamicSelectionPolicy(fixed_overhead_ms=0.0)
    first = policy.decide(context(["r1", "r2", "r3"], estimator))
    estimator.values[:] = [0.1, 0.2, 0.3]  # the estimator rewrites its answer
    second = policy.decide(context(["r1", "r2", "r3"], estimator))
    assert first.meta["probabilities"] == {"r1": 0.8, "r2": 0.6, "r3": 0.4}
    assert second.meta["probabilities"] == {"r1": 0.1, "r2": 0.2, "r3": 0.3}

    repo = loaded_repository()
    estimator = ResponseTimeEstimator(repo)
    earlier = policy.decide(context(repo.replicas(), estimator))
    kept = dict(earlier.meta["probabilities"])
    for _ in range(5):
        repo.record_performance("r1", 200.0, 0.0, 0, now_ms=1.0)
    later = policy.decide(context(repo.replicas(), estimator))
    assert later.meta["probabilities"]["r1"] < kept["r1"]
    assert bits(earlier.meta["probabilities"].values()) == bits(kept.values())


def test_another_replica_list_gets_its_own_index():
    estimator = FixedEstimator([0.7, 0.5, 0.3])
    policy = DynamicSelectionPolicy(fixed_overhead_ms=0.0)
    first = policy.decide(context(["a", "b", "c"], estimator))
    reordered = policy.decide(context(["c", "a", "b"], estimator))
    assert list(reordered.meta["probabilities"]) == ["c", "a", "b"]
    assert reordered.meta["probabilities"] == {"c": 0.7, "a": 0.5, "b": 0.3}
    assert first.meta["probabilities"] == {"a": 0.7, "b": 0.5, "c": 0.3}
    again = policy.decide(context(["a", "b", "c"], estimator))
    assert again.meta["probabilities"] == first.meta["probabilities"]
