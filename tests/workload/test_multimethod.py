"""Tests for multi-method scenarios and method choosers."""

import pytest

from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.replica.load import ServiceProfile
from repro.workload.scenarios import Scenario, ScenarioConfig


def _config(**overrides):
    base = dict(
        seed=0,
        num_replicas=2,
        service_distribution_factory=lambda host: Constant(10.0),
        extra_methods={"analyze": Constant(50.0)},
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_extra_methods_join_the_interface():
    scenario = Scenario(_config())
    assert "analyze" in scenario.interface
    assert "process" in scenario.interface


def test_extra_methods_get_their_own_service_times():
    scenario = Scenario(_config())
    client = scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 500.0, 0.0),
        num_requests=6,
        think_time=Constant(10.0),
        method_chooser=lambda i: "analyze" if i % 2 else "process",
    )
    scenario.run_to_completion()
    cheap = [o.response_time_ms for o in client.outcomes[0::2]]
    heavy = [o.response_time_ms for o in client.outcomes[1::2]]
    assert max(cheap) < 30.0
    assert min(heavy) > 50.0


def test_a_client_naming_an_unknown_method_stops_the_run():
    # The client's process raises on its third request; the error leaves
    # run_to_completion instead of ending the client as if it had finished.
    scenario = Scenario(_config())
    client = scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 500.0, 0.0),
        num_requests=5,
        think_time=Constant(10.0),
        method_chooser=lambda i: "process" if i < 2 else "no-such-method",
    )
    with pytest.raises(KeyError, match="no-such-method"):
        scenario.run_to_completion()
    assert len(client.outcomes) == 2 and not client.done


def test_method_chooser_default_is_config_method():
    scenario = Scenario(_config())
    client = scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 500.0, 0.0),
        num_requests=3,
        think_time=Constant(10.0),
    )
    scenario.run_to_completion()
    # All requests used the cheap default method.
    assert all(o.response_time_ms < 30.0 for o in client.outcomes)


def test_profile_factory_overrides_everything():
    def profile_factory(host):
        if host == "replica-1":
            return ServiceProfile(default=Constant(5.0))
        return ServiceProfile(default=Constant(400.0))

    scenario = Scenario(
        ScenarioConfig(seed=0, num_replicas=2, profile_factory=profile_factory)
    )
    client = scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 100.0, 0.5),
        num_requests=10,
        think_time=Constant(10.0),
    )
    scenario.run_to_completion()
    # After bootstrap, the model should route to the fast replica only.
    late = client.outcomes[2:]
    assert all(o.replica == "replica-1" for o in late if o.replica)


def test_handler_kwargs_reach_the_handler():
    scenario = Scenario(_config())
    scenario.add_client(
        "c1",
        QoSSpec(scenario.config.service, 500.0, 0.0),
        num_requests=1,
        handler_kwargs={"gateway_window_size": 7},
    )
    handler = scenario.handlers["c1"]
    assert handler.engine.config.gateway_window_size == 7
    assert handler.repository.gateway_window_size == 7
