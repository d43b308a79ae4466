"""Unit tests for the scenario builder."""

import pytest

from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.workload.scenarios import (
    IntegerServant,
    Scenario,
    ScenarioConfig,
    make_interface,
)


def test_make_interface_single_method():
    interface = make_interface("svc", "go", request_bytes=10, reply_bytes=20)
    assert interface.name == "svc"
    signature = interface.method("go")
    assert signature.request_bytes == 10
    assert signature.reply_bytes == 20


def test_integer_servant_echoes_index():
    interface = make_interface()
    servant = IntegerServant(interface)
    assert servant.dispatch("process", (41,)) == 41
    with pytest.raises(KeyError):
        servant.dispatch("other", ())


def test_default_config_matches_paper():
    config = ScenarioConfig()
    assert config.num_replicas == 7
    assert config.service_mean_ms == 100.0
    assert config.service_sigma_ms == 50.0
    assert config.window_size == 5
    assert config.replica_hosts() == [f"replica-{i}" for i in range(1, 8)]


def test_scenario_deploys_all_replicas():
    scenario = Scenario(ScenarioConfig(seed=0, num_replicas=4))
    view = scenario.group_comm.view("search")
    assert len(view.members) == 4


def test_qos_service_must_match(recwarn):
    scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
    with pytest.raises(ValueError):
        scenario.add_client("c1", QoSSpec("wrong-service", 100.0, 0.5))


def test_custom_service_distribution_factory():
    config = ScenarioConfig(
        seed=0,
        num_replicas=2,
        service_distribution_factory=lambda host: Constant(5.0),
    )
    scenario = Scenario(config)
    client = scenario.add_client(
        "c1",
        QoSSpec(config.service, 500.0, 0.0),
        num_requests=3,
        think_time=Constant(10.0),
    )
    scenario.run_to_completion()
    # All responses ~ 5 ms service + small network/marshalling overhead.
    assert all(o.response_time_ms < 20.0 for o in client.outcomes)


def test_run_to_completion_finishes_all_clients():
    scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
    clients = [
        scenario.add_client(
            f"c{i}",
            QoSSpec(scenario.config.service, 300.0, 0.0),
            num_requests=4,
            think_time=Constant(50.0),
        )
        for i in range(3)
    ]
    scenario.run_to_completion()
    assert all(client.done for client in clients)


def test_same_seed_reproduces_results():
    def run_once():
        scenario = Scenario(ScenarioConfig(seed=42, num_replicas=3))
        client = scenario.add_client(
            "c1",
            QoSSpec(scenario.config.service, 150.0, 0.5),
            num_requests=10,
        )
        scenario.run_to_completion()
        return [round(o.response_time_ms, 6) for o in client.outcomes]

    assert run_once() == run_once()


def test_different_seeds_differ():
    def run_once(seed):
        scenario = Scenario(ScenarioConfig(seed=seed, num_replicas=3))
        client = scenario.add_client(
            "c1",
            QoSSpec(scenario.config.service, 150.0, 0.5),
            num_requests=10,
        )
        scenario.run_to_completion()
        return [o.response_time_ms for o in client.outcomes]

    assert run_once(1) != run_once(2)


def test_scheduled_crash_reduces_view():
    scenario = Scenario(ScenarioConfig(seed=0, num_replicas=3))
    scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 300.0, 0.0),
        num_requests=5,
        think_time=Constant(500.0),
    )
    scenario.schedule_crash("replica-2", at_ms=100.0)
    scenario.run_to_completion()
    assert "replica-2" not in scenario.group_comm.view("search")
