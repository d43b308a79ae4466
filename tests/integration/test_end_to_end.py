"""End-to-end integration tests: the full AQuA stack under load."""

import pytest

from repro.core.qos import QoSSpec
from repro.sim.random import Constant
from repro.workload.scenarios import Scenario, ScenarioConfig


def _qos(scenario, deadline, probability):
    return QoSSpec(scenario.config.service, deadline, probability)


class TestPaperWorkload:
    """The §6 two-client workload end to end."""

    @pytest.fixture(scope="class")
    def result(self):
        scenario = Scenario(ScenarioConfig(seed=1))
        client1 = scenario.add_client(
            "client-1", _qos(scenario, 200.0, 0.0), num_requests=50
        )
        client2 = scenario.add_client(
            "client-2", _qos(scenario, 160.0, 0.9), num_requests=50
        )
        scenario.run_to_completion()
        return scenario, client1, client2

    def test_all_requests_complete(self, result):
        _scenario, client1, client2 = result
        assert client1.summary().requests == 50
        assert client2.summary().requests == 50

    def test_qos_client_meets_its_budget(self, result):
        _scenario, _client1, client2 = result
        assert client2.summary().failure_probability <= 0.1

    def test_stricter_client_uses_more_redundancy(self, result):
        _scenario, client1, client2 = result
        assert client2.summary().mean_redundancy > client1.summary().mean_redundancy

    def test_loose_client_floors_at_two_replicas(self, result):
        _scenario, client1, _client2 = result
        # Paper Fig. 4: Pc=0 always selects Algorithm 1's minimum of 2
        # (the bootstrap request alone selects all 7).
        non_bootstrap = client1.outcomes[1:]
        assert all(o.redundancy == 2 for o in non_bootstrap)

    def test_responses_carry_the_servant_value(self, result):
        _scenario, client1, _client2 = result
        values = [o.value for o in client1.outcomes if not o.timed_out]
        assert values == list(range(len(values)))

    def test_handlers_track_all_replicas(self, result):
        scenario, _c1, _c2 = result
        for handler in scenario.handlers.values():
            assert len(handler.repository) == 7
            assert all(
                handler.repository.record(name).has_history
                for name in handler.repository.replicas()
            )


class TestTightDeadlines:
    def test_impossible_deadline_fails_most_requests(self):
        scenario = Scenario(ScenarioConfig(seed=2))
        client = scenario.add_client(
            "client-1",
            _qos(scenario, 20.0, 0.9),  # < mean service 100 ms
            num_requests=30,
        )
        scenario.run_to_completion()
        summary = client.summary()
        # The system cannot conjure capacity; the algorithm falls back to
        # all replicas and most requests still miss.
        assert summary.failure_probability > 0.5
        assert summary.mean_redundancy > 5.0

    def test_violation_callback_reports_impossible_qos(self):
        scenario = Scenario(ScenarioConfig(seed=2))
        violations = []
        scenario.add_client(
            "client-1",
            _qos(scenario, 20.0, 0.9),
            num_requests=30,
            violation_callback=lambda svc, p, spec: violations.append(p),
        )
        scenario.run_to_completion()
        assert violations
        assert violations[0] < 0.9


class TestMultiplePolicies:
    def test_all_replicas_policy_floods_every_server(self):
        from repro.core.baselines import AllReplicasPolicy

        scenario = Scenario(ScenarioConfig(seed=3, num_replicas=4))
        client = scenario.add_client(
            "client-1",
            _qos(scenario, 300.0, 0.0),
            policy=AllReplicasPolicy(),
            num_requests=10,
            think_time=Constant(200.0),
        )
        scenario.run_to_completion()
        assert all(o.redundancy == 4 for o in client.outcomes)
        for host in scenario.config.replica_hosts():
            assert scenario.manager.handler_on(host).app.requests_served == 10

    def test_single_fastest_uses_one_replica_after_bootstrap(self):
        from repro.core.baselines import SingleFastestPolicy

        scenario = Scenario(ScenarioConfig(seed=3, num_replicas=4))
        client = scenario.add_client(
            "client-1",
            _qos(scenario, 300.0, 0.0),
            policy=SingleFastestPolicy(),
            num_requests=10,
            think_time=Constant(200.0),
        )
        scenario.run_to_completion()
        assert all(o.redundancy == 1 for o in client.outcomes)


class TestSharedService:
    def test_many_clients_share_the_replica_pool(self):
        scenario = Scenario(ScenarioConfig(seed=4))
        clients = [
            scenario.add_client(
                f"client-{i}",
                _qos(scenario, 200.0, 0.5),
                num_requests=10,
                think_time=Constant(100.0),
            )
            for i in range(5)
        ]
        scenario.run_to_completion()
        for client in clients:
            assert client.summary().requests == 10
        served = sum(
            scenario.manager.handler_on(h).app.requests_served
            for h in scenario.config.replica_hosts()
        )
        # Every request was served by >= 1 replica.
        assert served >= 50
