"""Unit tests for the dependability manager."""

import pytest

from repro.group.ensemble import GroupCommunication
from repro.group.failure_detector import FailureDetector
from repro.net.lan import LanModel, LinkProfile
from repro.net.transport import Transport
from repro.proteus.manager import DependabilityManager, ServiceSpec
from repro.replica.faults import CrashSchedule, FaultInjector
from repro.replica.load import ServiceProfile
from repro.sim.kernel import Simulator
from repro.rng import RNGManager
from repro.sim.random import Constant
from repro.workload.scenarios import IntegerServant, make_interface


class ManagerFixture:
    def __init__(self, num_hosts=4):
        self.sim = Simulator()
        self.streams = RNGManager(base_seed=0)
        profile = LinkProfile(jitter=Constant(0.0))
        self.lan = LanModel(self.streams, default_profile=profile)
        self.hosts = [f"replica-{i + 1}" for i in range(num_hosts)]
        for host in self.hosts:
            self.lan.add_host(host)
        self.transport = Transport(self.sim, self.lan)
        detector = FailureDetector(
            self.sim, self.lan, poll_interval_ms=10.0, confirm_polls=2
        )
        self.group_comm = GroupCommunication(
            self.sim, self.lan, self.transport, failure_detector=detector
        )
        self.interface = make_interface("search")
        self.manager = DependabilityManager(
            self.sim, self.lan, self.transport, self.group_comm, self.streams
        )
        self.injector = FaultInjector(self.sim, self.lan)
        self.manager.attach_injector(self.injector)

    def spec(self, level):
        return ServiceSpec(
            service="search",
            servant_factory=lambda: IntegerServant(self.interface),
            profile_factory=lambda host: ServiceProfile(default=Constant(10.0)),
            replication_level=level,
        )


@pytest.fixture
def fx():
    return ManagerFixture()


def test_replication_level_validation(fx):
    with pytest.raises(ValueError):
        fx.spec(0)


def test_deploy_starts_target_level(fx):
    active = fx.manager.deploy(fx.spec(3), fx.hosts)
    assert active == fx.hosts[:3]
    assert fx.group_comm.view("search").members == tuple(fx.hosts[:3])
    assert fx.manager.replicas_started == 3


def test_deploy_needs_enough_hosts(fx):
    with pytest.raises(ValueError):
        fx.manager.deploy(fx.spec(5), fx.hosts)


def test_double_deploy_rejected(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    with pytest.raises(ValueError):
        fx.manager.deploy(fx.spec(2), fx.hosts)


def test_host_cannot_run_two_replicas(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    with pytest.raises(ValueError):
        fx.manager.start_replica("search", fx.hosts[0])


def test_crash_hooks_stop_the_server(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    handler = fx.manager.handler_on(fx.hosts[0])
    fx.injector.crash_now(fx.hosts[0])
    assert handler.crashed


def test_crash_evicts_from_group(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    fx.injector.schedule(CrashSchedule(fx.hosts[0], crash_at_ms=50.0))
    fx.sim.run(until=500.0)
    assert fx.hosts[0] not in fx.group_comm.view("search")


def test_recovery_restarts_and_rejoins(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    fx.injector.schedule(
        CrashSchedule(fx.hosts[0], crash_at_ms=50.0, recover_at_ms=300.0)
    )
    fx.sim.run(until=1000.0)
    handler = fx.manager.handler_on(fx.hosts[0])
    assert not handler.crashed
    assert fx.hosts[0] in fx.group_comm.view("search")


def test_maintain_replication_uses_spares(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)  # hosts 3,4 become spares
    fx.manager.maintain_replication("search", start_delay_ms=100.0)
    fx.injector.schedule(CrashSchedule(fx.hosts[0], crash_at_ms=50.0))
    fx.sim.run(until=2000.0)
    members = fx.group_comm.view("search").members
    assert len(members) == 2
    assert fx.hosts[2] in members  # first spare promoted


def test_maintain_replication_delay_validation(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    with pytest.raises(ValueError):
        fx.manager.maintain_replication("search", start_delay_ms=-1.0)


def test_gateway_for_is_cached(fx):
    gateway = fx.manager.gateway_for("replica-1")
    assert fx.manager.gateway_for("replica-1") is gateway
