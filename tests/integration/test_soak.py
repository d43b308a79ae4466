"""Soak test: a long chaotic run must stay live and account correctly.

Crashes, recoveries, load steps and message loss all at once, with
several QoS tiers — the closest this suite gets to production chaos.
Assertions are about *liveness* and *conservation*, not performance.
"""

import pytest

from repro.core.qos import QoSSpec
from repro.replica.load import ConstantLoad, StepLoad
from repro.sim.random import Exponential
from repro.workload.scenarios import Scenario, ScenarioConfig


@pytest.fixture(scope="module")
def soak_run():
    def load_factory(host):
        if host == "replica-2":
            return StepLoad([(10_000.0, 2.5), (30_000.0, 1.0)])
        if host == "replica-5":
            return StepLoad(  # a slow oscillation around 1.0
                [(0.0, 1.6), (10_000.0, 0.4), (20_000.0, 1.6), (30_000.0, 0.4)]
            )
        return ConstantLoad(1.0)

    config = ScenarioConfig(
        seed=13,
        num_replicas=7,
        loss_probability=0.01,
        load_factory=load_factory,
        response_timeout_factor=5.0,
    )
    scenario = Scenario(config)
    clients = []
    specs = [
        (150.0, 0.9),
        (200.0, 0.5),
        (300.0, 0.0),
        (180.0, 0.8),
    ]
    for index, (deadline, probability) in enumerate(specs):
        clients.append(
            scenario.add_client(
                f"client-{index + 1}",
                QoSSpec(config.service, deadline, probability),
                num_requests=40,
                think_time=Exponential(400.0),
            )
        )
    # Chaos schedule: two crashes (one recovers), staggered.
    scenario.schedule_crash("replica-1", at_ms=8_000.0, recover_at_ms=25_000.0)
    scenario.schedule_crash("replica-4", at_ms=15_000.0)
    scenario.run_to_completion()
    return scenario, clients


def test_every_client_finishes(soak_run):
    _scenario, clients = soak_run
    for client in clients:
        assert client.done
        assert client.summary().requests == 40


def test_no_request_is_lost_by_accounting(soak_run):
    scenario, clients = soak_run
    # Every issued request produced exactly one outcome.
    issued = sum(len(c.outcomes) for c in clients)
    assert issued == 4 * 40
    # Every outcome is either a reply or an explicit timeout.
    for client in clients:
        for outcome in client.outcomes:
            assert outcome.timed_out or outcome.replica is not None


def test_transport_conservation(soak_run):
    scenario, _clients = soak_run
    transport = scenario.transport
    assert (
        transport.delivered_count
        + transport.dropped_count
        + transport.lost_count
        == transport.sent_count
    )


def test_membership_reflects_final_fault_state(soak_run):
    scenario, _clients = soak_run
    members = scenario.group_comm.view("search").members
    assert "replica-4" not in members  # crashed for good
    assert "replica-1" in members  # recovered and rejoined
    assert len(members) == 6


def test_repositories_track_only_live_replicas(soak_run):
    scenario, _clients = soak_run
    live = set(scenario.group_comm.view("search").members)
    for handler in scenario.handlers.values():
        assert set(handler.repository.replicas()) <= live


def test_loose_tier_never_over_hedges(soak_run):
    _scenario, clients = soak_run
    # The Pc=0 client floors at 2 replicas except bootstrap/fallbacks.
    loose = clients[2]
    non_bootstrap = [
        o for o in loose.outcomes
        if not o.decision_meta.get("bootstrap", False)
    ]
    assert non_bootstrap
    typical = sorted(o.redundancy for o in non_bootstrap)
    assert typical[len(typical) // 2] == 2  # median redundancy


def test_timing_failure_stats_match_outcomes(soak_run):
    scenario, clients = soak_run
    for index, client in enumerate(clients):
        handler = scenario.handlers[f"client-{index + 1}"]
        late = sum(1 for o in client.outcomes if not o.timely)
        assert handler.stats.timing_failures == late
        assert handler.stats.responses == len(client.outcomes)
