"""Unit tests for the redundancy governor (repro.overload.governor)."""

import numpy as np

from repro.core.qos import QoSSpec
from repro.core.selection import (
    DynamicSelectionPolicy,
    SelectionContext,
    SelectionDecision,
    SelectionPolicy,
)
from repro.overload import GovernedSelectionPolicy, LoadTracker
from repro.overload.governor import ENGAGE_LOAD, SATURATE_LOAD

REPLICAS = [f"s-{i + 1}" for i in range(5)]


class StubTracker:
    """A tracker whose system load is set directly by the test."""

    def __init__(self, load=0.0):
        self.load = load
        self.seen_names = None

    def system_load(self, names=None):
        self.seen_names = list(names) if names is not None else None
        return self.load


class FixedEstimator:
    """Maps replica name -> F_{R_i}(t), ignoring the deadline."""

    def __init__(self, probabilities):
        self.probabilities = probabilities

    def batch_probability_by(self, replicas, deadline_ms):
        return [self.probabilities[replica] for replica in replicas]


class RecordingPolicy(SelectionPolicy):
    """Cap-blind inner policy that records the context it was handed."""

    name = "recording"
    crash_tolerance = 1

    def __init__(self, selected):
        self.selected = tuple(selected)
        self.contexts = []

    def decide(self, ctx):
        self.contexts.append(ctx)
        return SelectionDecision(selected=self.selected, meta={"inner": True})


def make_ctx(probabilities, min_probability=0.9, max_redundancy=None,
             health=None):
    names = sorted(probabilities)
    return SelectionContext(
        replicas=names,
        estimator=FixedEstimator(probabilities),
        qos=QoSSpec("search", 100.0, min_probability),
        now_ms=0.0,
        rng=np.random.default_rng(0),
        health=health,
        max_redundancy=max_redundancy,
    )


def test_config_validation():
    # The ladder has a linear stretch between two non-negative loads.
    assert 0.0 <= ENGAGE_LOAD < SATURATE_LOAD


def test_the_ladder_is_a16_s_tuning():
    # The constants are A16's one tuning of its knee; the digests hold
    # them, and so does this literal point on the ladder.
    policy = GovernedSelectionPolicy(RecordingPolicy(REPLICAS), StubTracker())
    assert policy.cap_for(1.0, 5) == 3
    assert policy.cap_for(1.0, 0) == 0
    assert policy.last_load == 0.0


def test_the_floor_defaults_to_the_single_crash_guarantee():
    class ToleranceBlind(SelectionPolicy):
        def decide(self, ctx):
            return SelectionDecision(selected=tuple(ctx.replicas), meta={})

    policy = GovernedSelectionPolicy(ToleranceBlind(), StubTracker(load=10.0))
    assert policy.floor_redundancy() == 2
    decision = policy.decide(make_ctx({name: 0.5 for name in REPLICAS}))
    assert decision.selected == tuple(REPLICAS[:2])


def test_cap_ladder_endpoints_and_interpolation():
    policy = GovernedSelectionPolicy(RecordingPolicy(REPLICAS), StubTracker())
    midpoint = (ENGAGE_LOAD + SATURATE_LOAD) / 2
    assert policy.floor_redundancy() == 2  # crash_tolerance + 1
    assert policy.cap_for(0.0, 5) == 5  # idle: full hedging
    assert policy.cap_for(ENGAGE_LOAD, 5) == 5  # at engage: still uncapped
    assert policy.cap_for(SATURATE_LOAD, 5) == 2  # at saturate: the floor
    assert policy.cap_for(9.9, 5) == 2  # beyond: never below the floor
    assert policy.cap_for(midpoint, 5) == 4  # ceil(0.5 * 3) above the floor
    # Monotone non-increasing along the ladder.
    caps = [policy.cap_for(load, 5) for load in np.linspace(0.0, 2.0, 41)]
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    # Floor clamps to the available count when the pool is tiny.
    assert policy.cap_for(9.9, 1) == 1
    assert policy.cap_for(0.0, 0) == 0


def test_inert_governor_passes_the_context_through_untouched():
    inner = RecordingPolicy(REPLICAS)
    policy = GovernedSelectionPolicy(inner, StubTracker(load=0.0))
    ctx = make_ctx({name: 0.9 for name in REPLICAS})
    decision = policy.decide(ctx)
    # The very same object: zero-load decisions are bit-for-bit the
    # un-wrapped policy's.
    assert inner.contexts[0] is ctx
    assert decision.selected == tuple(REPLICAS)
    assert decision.meta["governor"]["engaged"] is False
    assert policy.engagements == 0


def test_engaged_governor_caps_via_the_context_and_trims_blind_policies():
    inner = RecordingPolicy(REPLICAS)  # ignores max_redundancy entirely
    policy = GovernedSelectionPolicy(inner, StubTracker(load=5.0))
    decision = policy.decide(make_ctx({name: 0.9 for name in REPLICAS}))
    assert inner.contexts[0].max_redundancy == 2
    assert decision.selected == tuple(REPLICAS[:2])  # post-hoc trim
    assert decision.meta["governor"] == {
        "load": 5.0,
        "cap": 2,
        "available": 5,
        "engaged": True,
    }
    assert policy.engagements == 1
    assert policy.last_load == 5.0


def test_existing_context_cap_is_respected():
    inner = RecordingPolicy(REPLICAS)
    policy = GovernedSelectionPolicy(inner, StubTracker(load=0.0))
    policy.decide(make_ctx({n: 0.9 for n in REPLICAS}, max_redundancy=3))
    # An upstream cap tighter than the governor's still reaches the inner
    # policy even while the governor itself is inert.
    assert inner.contexts[0].max_redundancy == 3


def test_quarantine_shrinks_the_capacity_the_load_is_computed_over():
    class Health:
        def is_quarantined(self, name):
            return name in {"s-4", "s-5"}

        def discount(self, name):
            return 1.0

    tracker = StubTracker(load=0.0)
    policy = GovernedSelectionPolicy(RecordingPolicy(REPLICAS), tracker)
    policy.decide(make_ctx({n: 0.9 for n in REPLICAS}, health=Health()))
    assert tracker.seen_names == ["s-1", "s-2", "s-3"]


def test_governed_dynamic_selection_stays_capped_under_load():
    tracker = LoadTracker()
    for name in REPLICAS:
        tracker.observe_reply(name, queue_length=40)  # way past saturate
    policy = GovernedSelectionPolicy(
        DynamicSelectionPolicy(crash_tolerance=1, compensate_overhead=False),
        tracker,
    )
    # Hopeless probabilities would make ungoverned Algorithm 1 fall back
    # to selecting all five replicas; the governor holds it at the floor.
    ctx = make_ctx({name: 0.05 for name in REPLICAS}, min_probability=0.99)
    decision = policy.decide(ctx)
    assert len(decision.selected) == 2
    assert decision.meta["capped"] is True
    assert decision.meta["fallback"] is True
    assert policy.name == "governed-dynamic"
