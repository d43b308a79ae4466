"""Selection-layer health integration: quarantine exclusion and trust
discounts."""

import numpy as np
import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.qos import QoSSpec
from repro.core.repository import InformationRepository
from repro.core.selection import DynamicSelectionPolicy, SelectionContext
from repro.health import HealthConfig, HealthMonitor, HealthState
from repro.health.state import SUSPECTED_DISCOUNT


def loaded_repo(means):
    repo = InformationRepository(window_size=5)
    for name, mean in means.items():
        for _ in range(5):
            repo.record_performance(name, mean, 0.0, 0, now_ms=0.0)
        repo.record_gateway_delay(name, 3.0, now_ms=0.0)
    return repo


def context(repo, health=None, deadline=120.0, min_probability=0.9):
    return SelectionContext(
        replicas=repo.replicas(),
        estimator=ResponseTimeEstimator(repo),
        qos=QoSSpec("svc", deadline, min_probability),
        now_ms=0.0,
        rng=np.random.default_rng(0),
        health=health,
    )


def monitor_for(repo) -> HealthMonitor:
    monitor = HealthMonitor(HealthConfig(backoff_initial_ms=50.0))
    monitor.sync_members(repo.replicas(), now_ms=0.0)
    return monitor


def quarantine(monitor, name):
    for at in (1.0, 2.0, 3.0):
        monitor.record_fault(name, at)
    assert monitor.state(name) is HealthState.QUARANTINED


class TestQuarantineExclusion:
    def test_quarantined_replica_is_never_selected(self):
        repo = loaded_repo({"r1": 50.0, "r2": 60.0, "r3": 70.0})
        monitor = monitor_for(repo)
        quarantine(monitor, "r1")
        decision = DynamicSelectionPolicy().decide(context(repo, monitor))
        assert "r1" not in decision.selected
        assert decision.meta["quarantined"] == ("r1",)
        assert decision.meta["quarantine_override"] is False

    def test_all_quarantined_keeps_full_set_with_override(self):
        repo = loaded_repo({"r1": 50.0, "r2": 60.0})
        monitor = monitor_for(repo)
        quarantine(monitor, "r1")
        quarantine(monitor, "r2")
        decision = DynamicSelectionPolicy().decide(context(repo, monitor))
        assert set(decision.selected) == {"r1", "r2"}
        assert decision.meta["quarantine_override"] is True

    def test_bootstrap_goes_to_non_quarantined_replicas_only(self):
        repo = loaded_repo({"r1": 50.0})
        repo.add_replica("r2")  # no history -> bootstrap path
        repo.add_replica("r3")
        monitor = monitor_for(repo)
        quarantine(monitor, "r3")
        decision = DynamicSelectionPolicy().decide(context(repo, monitor))
        assert decision.meta["bootstrap"] is True
        assert set(decision.selected) == {"r1", "r2"}

    def test_without_health_view_behavior_is_unchanged(self):
        repo = loaded_repo({"r1": 50.0, "r2": 60.0})
        plain = DynamicSelectionPolicy().decide(context(repo))
        assert "quarantined" not in plain.meta
        assert set(plain.selected) == {"r1", "r2"}


class TestTrustDiscount:
    def test_suspected_replica_probability_is_discounted(self):
        # r1 and r2 are identical; suspecting r1 must scale its F by the
        # suspicion discount, visible in the decision's probabilities.
        repo = loaded_repo({"r1": 50.0, "r2": 50.0})
        monitor = monitor_for(repo)
        monitor.record_fault("r1", 1.0)
        monitor.record_fault("r1", 2.0)
        assert monitor.state("r1") is HealthState.SUSPECTED
        decision = DynamicSelectionPolicy().decide(context(repo, monitor))
        probabilities = decision.meta["probabilities"]
        assert probabilities["r1"] == pytest.approx(
            SUSPECTED_DISCOUNT * probabilities["r2"]
        )

    def test_discount_changes_the_pick_between_equals(self):
        repo = loaded_repo({"r1": 50.0, "r2": 50.0, "r3": 50.0})
        monitor = monitor_for(repo)
        monitor.record_fault("r1", 1.0)
        monitor.record_fault("r1", 2.0)
        decision = DynamicSelectionPolicy(crash_tolerance=0).decide(
            context(repo, monitor, min_probability=0.9)
        )
        # All three meet the deadline with F=1 when healthy; a discounted
        # r1 must rank behind the two full-trust replicas.
        assert decision.selected[0] in {"r2", "r3"}
        assert "r1" not in decision.selected[:2]

