"""Active and passive replication: the timing fault handler under
:class:`AllReplicasPolicy` / :class:`PrimaryBackupPolicy`."""

from repro.core.qos import QoSSpec
from repro.core.baselines import AllReplicasPolicy, PrimaryBackupPolicy
from repro.sim.random import Constant
from repro.workload.scenarios import Scenario, ScenarioConfig


def _scenario(num_replicas=3, seed=0, **cfg):
    return Scenario(
        ScenarioConfig(
            seed=seed,
            num_replicas=num_replicas,
            service_distribution_factory=lambda host: Constant(20.0),
            **cfg,
        )
    )


def _qos(scenario, deadline=500.0):
    return QoSSpec(scenario.config.service, deadline, 0.0)


class TestActiveHandler:
    def test_broadcasts_every_request(self):
        scenario = _scenario()
        client = scenario.add_client(
            "c1",
            _qos(scenario),
            policy=AllReplicasPolicy(),
            num_requests=5,
            think_time=Constant(50.0),
        )
        scenario.run_to_completion()
        assert all(o.redundancy == 3 for o in client.outcomes)

    def test_survives_any_single_crash_without_timeouts(self):
        scenario = _scenario()
        client = scenario.add_client(
            "c1",
            _qos(scenario),
            policy=AllReplicasPolicy(),
            num_requests=20,
            think_time=Constant(100.0),
        )
        scenario.schedule_crash("replica-2", at_ms=500.0)
        scenario.run_to_completion()
        assert client.summary().timeouts == 0


class TestPassiveHandler:
    def test_routes_to_single_primary(self):
        scenario = _scenario()
        client = scenario.add_client(
            "c1",
            _qos(scenario),
            policy=PrimaryBackupPolicy(),
            num_requests=5,
            think_time=Constant(50.0),
        )
        scenario.run_to_completion()
        replicas = {o.replica for o in client.outcomes if o.replica}
        assert replicas == {"replica-1"}  # lowest name is primary
        assert all(o.redundancy == 1 for o in client.outcomes)

    def test_backup_promoted_after_primary_crash(self):
        scenario = _scenario(seed=1, response_timeout_factor=2.0)
        client = scenario.add_client(
            "c1",
            _qos(scenario, deadline=300.0),
            policy=PrimaryBackupPolicy(),
            num_requests=20,
            think_time=Constant(150.0),
        )
        scenario.schedule_crash("replica-1", at_ms=1_000.0)
        scenario.run_to_completion()
        late_replicas = {
            o.replica for o in client.outcomes[-5:] if o.replica
        }
        assert late_replicas == {"replica-2"}  # next in name order

    def test_policy_returns_empty_for_empty_view(self):
        import numpy as np

        from repro.core.estimator import ResponseTimeEstimator
        from repro.core.repository import InformationRepository
        from repro.core.selection import SelectionContext

        ctx = SelectionContext(
            replicas=[],
            estimator=ResponseTimeEstimator(InformationRepository()),
            qos=QoSSpec("s", 100.0, 0.0),
            now_ms=0.0,
            rng=np.random.default_rng(0),
        )
        assert PrimaryBackupPolicy().decide(ctx).selected == ()
