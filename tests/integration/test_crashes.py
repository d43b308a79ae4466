"""Integration tests for crash tolerance (paper §5.3.2)."""


from repro.core.baselines import SingleFastestPolicy
from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.workload.scenarios import Scenario, ScenarioConfig


def _qos(scenario, deadline=160.0, probability=0.9):
    return QoSSpec(scenario.config.service, deadline, probability)


def test_single_crash_does_not_break_qos():
    """Algorithm 1's selected set absorbs the crash of any one member."""
    scenario = Scenario(ScenarioConfig(seed=0))
    client = scenario.add_client("client-1", _qos(scenario), num_requests=50)
    scenario.schedule_crash("replica-1", at_ms=10_000.0)
    scenario.run_to_completion()
    summary = client.summary()
    assert summary.requests == 50
    assert summary.failure_probability <= 0.1


def test_crashed_replica_is_purged_from_repositories():
    scenario = Scenario(ScenarioConfig(seed=0))
    handler_owner = scenario.add_client(
        "client-1", _qos(scenario), num_requests=30
    )
    scenario.schedule_crash("replica-3", at_ms=5_000.0)
    scenario.run_to_completion()
    handler = scenario.handlers["client-1"]
    assert "replica-3" not in handler.repository
    # Later requests never addressed the dead replica.
    late = [
        o for o in handler_owner.outcomes[10:] if o.replica == "replica-3"
    ]
    assert late == []


def test_recovered_replica_rejoins_and_serves_again():
    scenario = Scenario(ScenarioConfig(seed=1))
    client = scenario.add_client("client-1", _qos(scenario), num_requests=50)
    scenario.schedule_crash("replica-1", at_ms=5_000.0, recover_at_ms=20_000.0)
    scenario.run_to_completion()
    assert "replica-1" in scenario.group_comm.view("search")
    assert client.summary().requests == 50


def test_single_replica_policy_suffers_on_crash():
    """Without redundancy, requests in the detection window are lost."""
    scenario = Scenario(
        ScenarioConfig(seed=0, response_timeout_factor=3.0)
    )
    client = scenario.add_client(
        "client-1",
        _qos(scenario, deadline=200.0, probability=0.0),
        policy=SingleFastestPolicy(),
        num_requests=30,
        think_time=Constant(200.0),
    )
    # Crash whichever replica the policy has locked onto by killing all
    # outstanding history leaders one by one is overkill; crashing the
    # globally fastest (lowest-mean) host suffices with seed 0.
    scenario.schedule_crash("replica-1", at_ms=3_000.0)
    scenario.schedule_crash("replica-2", at_ms=3_000.0)
    scenario.run_to_completion()
    summary = client.summary()
    # At least one request timed out or was late during the window, which
    # the dynamic policy's hedging would have absorbed.
    assert summary.timeouts + summary.timing_failures >= 1


def test_multiple_sequential_crashes_leave_service_available():
    scenario = Scenario(ScenarioConfig(seed=2))
    client = scenario.add_client(
        "client-1", _qos(scenario, 200.0, 0.5), num_requests=40
    )
    scenario.schedule_crash("replica-1", at_ms=5_000.0)
    scenario.schedule_crash("replica-2", at_ms=15_000.0)
    scenario.schedule_crash("replica-3", at_ms=25_000.0)
    scenario.run_to_completion()
    summary = client.summary()
    assert summary.requests == 40
    assert len(scenario.group_comm.view("search").members) == 4
    assert summary.failure_probability <= 0.5


def test_all_replicas_crashing_times_out_requests():
    scenario = Scenario(
        ScenarioConfig(seed=3, num_replicas=2, response_timeout_factor=2.0)
    )
    client = scenario.add_client(
        "client-1",
        _qos(scenario, 200.0, 0.0),
        num_requests=10,
        think_time=Constant(300.0),
    )
    scenario.schedule_crash("replica-1", at_ms=2_000.0)
    scenario.schedule_crash("replica-2", at_ms=2_000.0)
    scenario.run_to_completion()
    summary = client.summary()
    assert summary.requests == 10
    assert summary.timeouts >= 1  # requests after the massacre time out
