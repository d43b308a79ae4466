"""Unit tests for the dependability manager."""

import pytest

from repro.proteus.manager import DependabilityManager
from repro.replica.load import ServiceProfile
from repro.sim.random import Constant
from repro.workload.ministack import IntegerServant, MiniStack, make_interface


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

    def deploy(self, hosts, interface=None):
        interface = interface or self.interface
        self.manager.deploy(
            "search",
            lambda: IntegerServant(interface),
            lambda host: ServiceProfile(default=Constant(10.0)),
            hosts,
        )


@pytest.fixture
def fx():
    return ManagerFixture()


def test_deploy_starts_target_level(fx):
    fx.deploy(fx.hosts[:3])
    assert fx.group_comm.view("search").members == tuple(fx.hosts[:3])
    assert sorted(fx.stack.replicas) == fx.hosts[:3]


def test_host_cannot_run_two_replicas(fx):
    fx.deploy(fx.hosts[:2])
    with pytest.raises(ValueError, match="already runs a replica"):
        fx.deploy([fx.hosts[2], fx.hosts[0]])
    assert fx.group_comm.view("search").members == tuple(fx.hosts[:3])


def test_servant_must_implement_the_service(fx):
    with pytest.raises(ValueError, match="expected 'search'"):
        fx.deploy(fx.hosts[:1], make_interface("billing", "charge"))
    assert fx.stack.replicas == {}


def test_crash_hooks_stop_the_server(fx):
    fx.deploy(fx.hosts[:2])
    handler = fx.manager.handler_on(fx.hosts[0])
    fx.stack.faults.crash_now(fx.hosts[0])
    assert handler.crashed


def test_crash_evicts_from_group(fx):
    fx.deploy(fx.hosts[:2])
    fx.crash(fx.hosts[0], at_ms=50.0)
    fx.sim.run(until=500.0)
    assert fx.hosts[0] not in fx.group_comm.view("search")


def test_recovery_restarts_and_rejoins(fx):
    fx.deploy(fx.hosts[:2])
    fx.crash(fx.hosts[0], at_ms=50.0, recover_at_ms=300.0)
    fx.sim.run(until=1000.0)
    handler = fx.manager.handler_on(fx.hosts[0])
    assert not handler.crashed
    assert fx.hosts[0] in fx.group_comm.view("search")


def test_gateway_for_is_cached(fx):
    gateway = fx.stack.gateway_for("replica-1")
    assert fx.stack.gateway_for("replica-1") is gateway
