"""Unit tests for the dependability manager."""

import pytest

from repro.proteus.manager import DependabilityManager, ServiceSpec
from repro.replica.load import ServiceProfile
from repro.sim.random import Constant
from repro.workload.ministack import IntegerServant, MiniStack


class ManagerFixture:
    """A manager over a bare stack; crashes go through ``stack.faults``."""

    def __init__(self, num_hosts=4):
        self.stack = MiniStack(seed=0)
        self.sim = self.stack.sim
        self.group_comm = self.stack.group_comm
        self.interface = self.stack.interface
        self.hosts = [f"replica-{i + 1}" for i in range(num_hosts)]
        for host in self.hosts:
            self.stack.lan.add_host(host)
        self.manager = DependabilityManager(self.stack)

    def crash(self, host, at_ms, recover_at_ms=None):
        self.stack.schedule_crash(host, at_ms, recover_at_ms)

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
    fx.stack.faults.crash_now(fx.hosts[0])
    assert handler.crashed


def test_crash_evicts_from_group(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    fx.crash(fx.hosts[0], at_ms=50.0)
    fx.sim.run(until=500.0)
    assert fx.hosts[0] not in fx.group_comm.view("search")


def test_recovery_restarts_and_rejoins(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    fx.crash(fx.hosts[0], at_ms=50.0, recover_at_ms=300.0)
    fx.sim.run(until=1000.0)
    handler = fx.manager.handler_on(fx.hosts[0])
    assert not handler.crashed
    assert fx.hosts[0] in fx.group_comm.view("search")


def test_maintain_replication_uses_spares(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)  # hosts 3,4 become spares
    fx.manager.maintain_replication("search", start_delay_ms=100.0)
    fx.crash(fx.hosts[0], at_ms=50.0)
    fx.sim.run(until=2000.0)
    members = fx.group_comm.view("search").members
    assert len(members) == 2
    assert fx.hosts[2] in members  # first spare promoted


def test_maintain_replication_delay_validation(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)
    with pytest.raises(ValueError):
        fx.manager.maintain_replication("search", start_delay_ms=-1.0)


def test_gateway_for_is_cached(fx):
    gateway = fx.stack.gateway_for("replica-1")
    assert fx.stack.gateway_for("replica-1") is gateway


def test_pending_spare_start_is_not_counted_as_a_deficit_again():
    # Level 3 of six hosts, Proteus takes 500 ms to start a spare.  The
    # second crash lands while the first spare's start is still pending:
    # the deficit is then 2 with 1 already on its way, so exactly one more
    # spare is due — not two.
    fx = ManagerFixture(num_hosts=6)
    fx.manager.deploy(fx.spec(3), fx.hosts)
    fx.manager.maintain_replication("search", start_delay_ms=500.0)
    fx.crash(fx.hosts[0], at_ms=50.0)
    fx.crash(fx.hosts[1], at_ms=150.0)
    fx.sim.run(until=3000.0)
    assert fx.group_comm.view("search").members == (
        fx.hosts[2], fx.hosts[3], fx.hosts[4],
    )
    assert fx.manager.replicas_started == 5
    assert fx.manager._spares["search"] == [fx.hosts[5]]


def test_spare_that_is_down_at_start_time_is_skipped(fx):
    fx.manager.deploy(fx.spec(2), fx.hosts)  # hosts 3,4 become spares
    fx.manager.maintain_replication("search", start_delay_ms=100.0)
    fx.crash(fx.hosts[0], at_ms=50.0)
    fx.crash(fx.hosts[2], at_ms=60.0)  # the first spare dies before its start
    fx.sim.run(until=2000.0)
    assert fx.manager.replicas_started == 2
    assert fx.hosts[2] not in fx.group_comm.view("search")
