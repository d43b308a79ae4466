"""Unit tests for client behaviours (closed- and open-loop)."""

import pytest

from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.workload.client import ClientSummary, OpenLoopClient
from repro.workload.scenarios import Scenario, ScenarioConfig


@pytest.fixture
def scenario():
    return Scenario(ScenarioConfig(seed=0, num_replicas=3))


def _qos(scenario, deadline=500.0, probability=0.0):
    return QoSSpec(scenario.config.service, deadline, probability)


class TestClosedLoopClient:
    def test_issues_exactly_num_requests(self, scenario):
        client = scenario.add_client(
            "c1", _qos(scenario), num_requests=7, think_time=Constant(10.0)
        )
        scenario.run_to_completion()
        assert len(client.outcomes) == 7
        assert client.done

    def test_think_time_spaces_requests(self, scenario):
        client = scenario.add_client(
            "c1", _qos(scenario), num_requests=3, think_time=Constant(1000.0)
        )
        scenario.run_to_completion()
        # Three requests, two think gaps of 1 s plus service time each.
        assert scenario.sim.now >= 2000.0

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            scenario.add_client("c1", _qos(scenario), num_requests=0)

    def test_summary_counts_failures(self, scenario):
        client = scenario.add_client(
            "c1",
            _qos(scenario, deadline=60.0),  # tighter than mean service
            num_requests=10,
            think_time=Constant(10.0),
        )
        scenario.run_to_completion()
        summary = client.summary()
        assert summary.requests == 10
        assert summary.timing_failures >= 1
        assert summary.failure_probability == pytest.approx(
            summary.timing_failures / 10
        )

    def test_process_returns_summary(self, scenario):
        client = scenario.add_client(
            "c1", _qos(scenario), num_requests=2, think_time=Constant(1.0)
        )
        scenario.run_to_completion()
        assert isinstance(client.process.value, ClientSummary)


def _open_loop(scenario, interarrival, num_requests):
    _handler, stub = scenario.bind_client("c1", _qos(scenario))
    return OpenLoopClient(
        sim=scenario.sim, stub=stub, host="c1", streams=scenario.streams,
        interarrival=interarrival, num_requests=num_requests,
    )


class TestOpenLoopClient:
    def test_all_requests_complete(self, scenario):
        client = _open_loop(scenario, Constant(20.0), num_requests=10)
        scenario.run()
        assert client.issued == 10
        assert len(client.outcomes) == 10

    def test_arrivals_do_not_wait_for_replies(self, scenario):
        # Interarrival 20 ms << ~100 ms service: requests overlap.  A
        # closed loop would need at least the sum of the response times;
        # the open loop finishes roughly when the slowest overlapping
        # request does.
        client = _open_loop(scenario, Constant(20.0), num_requests=5)
        scenario.run()
        total_response = sum(o.response_time_ms for o in client.outcomes)
        assert client.completed_at_ms is not None
        assert client.completed_at_ms < total_response

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            _open_loop(scenario, Constant(1.0), num_requests=0)


class TestClientSummary:
    def test_empty_summary(self):
        summary = ClientSummary(0, 0, 0, 0.0, 0.0)
        assert summary.failure_probability == 0.0
