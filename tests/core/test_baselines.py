"""Unit tests for the baseline selection policies."""

import numpy as np
import pytest

from repro.core.baselines import (
    AllReplicasPolicy,
    FixedRedundancyPolicy,
    LowestMeanPolicy,
    NearestPolicy,
    ProbeEstimatePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SingleFastestPolicy,
)
from repro.core.estimator import ResponseTimeEstimator
from repro.core.qos import QoSSpec
from repro.core.repository import InformationRepository
from repro.core.selection import SelectionContext


def _loaded_repo(means, queue_lengths=None, gateway=3.0):
    repo = InformationRepository(window_size=5)
    for name, mean in means.items():
        for _ in range(5):
            repo.record_performance(
                name, mean, 0.0,
                (queue_lengths or {}).get(name, 0), now_ms=0.0,
            )
        repo.record_gateway_delay(name, gateway, now_ms=0.0)
    return repo


def _context(repo, deadline=150.0, seed=0):
    return SelectionContext(
        replicas=repo.replicas(),
        estimator=ResponseTimeEstimator(repo),
        qos=QoSSpec("svc", deadline, 0.9),
        now_ms=0.0,
        rng=np.random.default_rng(seed),
    )


@pytest.fixture
def repo():
    return _loaded_repo({"r1": 50.0, "r2": 100.0, "r3": 200.0})


def test_all_replicas_selects_everything(repo):
    decision = AllReplicasPolicy().decide(_context(repo))
    assert set(decision.selected) == {"r1", "r2", "r3"}


def test_single_fastest_picks_highest_probability(repo):
    decision = SingleFastestPolicy().decide(_context(repo, deadline=60.0))
    assert decision.selected == ("r1",)


def test_single_fastest_with_empty_view():
    empty = InformationRepository()
    decision = SingleFastestPolicy().decide(_context(empty))
    assert decision.selected == ()


def test_fixed_redundancy_takes_k_best(repo):
    decision = FixedRedundancyPolicy(2).decide(_context(repo, deadline=120.0))
    assert set(decision.selected) == {"r1", "r2"}


def test_fixed_redundancy_validation():
    with pytest.raises(ValueError):
        FixedRedundancyPolicy(0)


def test_fixed_redundancy_caps_at_view_size(repo):
    decision = FixedRedundancyPolicy(10).decide(_context(repo))
    assert len(decision.selected) == 3


def test_random_policy_is_reproducible(repo):
    a = RandomPolicy(2).decide(_context(repo, seed=7)).selected
    b = RandomPolicy(2).decide(_context(repo, seed=7)).selected
    assert a == b
    assert len(a) == 2


def test_random_policy_selects_valid_members(repo):
    for seed in range(20):
        decision = RandomPolicy(1).decide(_context(repo, seed=seed))
        assert set(decision.selected) <= {"r1", "r2", "r3"}


def test_round_robin_rotates(repo):
    policy = RoundRobinPolicy(1)
    picks = [policy.decide(_context(repo)).selected[0] for _ in range(6)]
    assert picks == ["r1", "r2", "r3", "r1", "r2", "r3"]


def test_round_robin_multi_wraps(repo):
    policy = RoundRobinPolicy(2)
    first = policy.decide(_context(repo)).selected
    second = policy.decide(_context(repo)).selected
    assert first == ("r1", "r2")
    assert second == ("r3", "r1")


def test_lowest_mean_prefers_fast_replica(repo):
    decision = LowestMeanPolicy().decide(_context(repo))
    assert decision.selected == ("r1",)


def test_lowest_mean_unknown_history_ranks_last():
    repo = _loaded_repo({"r1": 500.0})
    repo.add_replica("r0")  # no history -> infinite mean
    decision = LowestMeanPolicy().decide(_context(repo))
    assert decision.selected == ("r1",)


def test_nearest_without_metric_uses_name_order(repo):
    # One LAN segment: every replica is equally near, so name order decides.
    decision = NearestPolicy().decide(_context(repo))
    assert decision.selected == ("r1",)


def test_probe_estimate_accounts_for_queue_depth():
    # r1 is intrinsically fast but has a deep queue; r2 wins on the
    # (queue_length + 1) * mean_service estimate.
    repo = _loaded_repo(
        {"r1": 50.0, "r2": 80.0}, queue_lengths={"r1": 5, "r2": 0}
    )
    decision = ProbeEstimatePolicy().decide(_context(repo))
    assert decision.selected == ("r2",)


def test_probe_estimate_without_history_ranks_last():
    repo = _loaded_repo({"r1": 100.0})
    repo.add_replica("r0")
    decision = ProbeEstimatePolicy().decide(_context(repo))
    assert decision.selected == ("r1",)


def test_redundancy_validation_across_policies():
    for cls in (RandomPolicy, RoundRobinPolicy, LowestMeanPolicy,
                NearestPolicy, ProbeEstimatePolicy):
        with pytest.raises(ValueError):
            cls(0)
