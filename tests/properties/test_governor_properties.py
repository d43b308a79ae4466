"""Property-based tests for the governed selection policy (hypothesis).

The governor's contract, for *every* probability vector, QoS target and
load index:

* the best replica ``m0`` is always part of the governed selection;
* while admitting, the set never shrinks below the single-crash
  guarantee (``crash_tolerance + 1`` members, clamped to the pool);
* at zero load the governed policy degenerates to exactly the ungoverned
  ``select_replicas`` — same set, same order, same flags.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.qos import QoSSpec
from repro.core.selection import (
    DynamicSelectionPolicy,
    ReplicaProbability,
    SelectionContext,
    select_replicas,
)
from repro.overload import GovernedSelectionPolicy

probabilities = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
)
targets = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
loads = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
tolerances = st.integers(min_value=0, max_value=3)


class StubTracker:
    def __init__(self, load):
        self.load = load

    def system_load(self, names=None):
        return self.load


class FixedEstimator:
    def __init__(self, table):
        self.table = table

    def batch_probability_by(self, replicas, deadline_ms):
        return [self.table[replica] for replica in replicas]


def governed(probs, load, crash_tolerance=1):
    table = {f"r{i}": p for i, p in enumerate(probs)}
    policy = GovernedSelectionPolicy(
        DynamicSelectionPolicy(
            crash_tolerance=crash_tolerance, compensate_overhead=False
        ),
        StubTracker(load),
    )
    return policy, table


def decide(policy, table, target):
    ctx = SelectionContext(
        replicas=sorted(table),
        estimator=FixedEstimator(table),
        qos=QoSSpec("search", 100.0, target),
        now_ms=0.0,
        rng=np.random.default_rng(0),
    )
    return policy.decide(ctx)


@given(probabilities, targets, loads)
def test_governed_selection_always_contains_m0(probs, target, load):
    policy, table = governed(probs, load)
    decision = decide(policy, table, target)
    # m0 = highest probability, ties broken by name (Algorithm 1's sort).
    m0 = min(table, key=lambda name: (-table[name], name))
    assert m0 in decision.selected
    assert decision.selected  # never empty while replicas exist
    assert set(decision.selected) <= set(table)


@given(probabilities, targets, loads, tolerances)
def test_never_below_single_crash_guarantee_while_admitting(
    probs, target, load, crash_tolerance
):
    policy, table = governed(probs, load, crash_tolerance=crash_tolerance)
    decision = decide(policy, table, target)
    floor = min(crash_tolerance + 1, len(table))
    assert len(decision.selected) >= floor
    # The cap itself never dips below the floor either.
    assert policy.cap_for(load, len(table)) >= floor


@given(probabilities, targets)
def test_zero_load_degenerates_to_ungoverned_algorithm_1(probs, target):
    policy, table = governed(probs, load=0.0)
    decision = decide(policy, table, target)
    reference = select_replicas(
        [ReplicaProbability(name, p) for name, p in table.items()],
        target,
        crash_tolerance=1,
    )
    assert decision.selected == reference.selected
    assert decision.meta["fallback"] == reference.used_fallback
    assert decision.meta["capped"] is False
    assert decision.meta["governor"]["engaged"] is False


@given(probabilities, targets, loads)
def test_cap_is_monotone_in_load(probs, target, load):
    policy, table = governed(probs, load)
    available = len(table)
    tighter = policy.cap_for(load + 0.25, available)
    assert policy.cap_for(load, available) >= tighter
