"""Tests for co-located replicas of multiple services on shared hosts."""

import pytest

from repro.core.qos import QoSSpec
from repro.gateway.handlers.timing_fault import TimingFaultClientHandler
from repro.orb.orb import Orb
from repro.proteus.manager import ServiceSpec
from repro.replica.load import CoupledLoad, HostActivity, ServiceProfile
from repro.sim.random import Constant
from repro.workload.scenarios import (
    IntegerServant,
    Scenario,
    ScenarioConfig,
    make_interface,
)


class TestHostActivity:
    def test_enter_exit_counting(self):
        activity = HostActivity()
        assert activity.busy("h") == 0
        activity.enter("h")
        activity.enter("h")
        assert activity.busy("h") == 2
        activity.exit("h")
        assert activity.busy("h") == 1

    def test_exit_without_enter_raises(self):
        with pytest.raises(ValueError):
            HostActivity().exit("h")

    def test_hosts_are_independent(self):
        activity = HostActivity()
        activity.enter("a")
        assert activity.busy("b") == 0


class TestCoupledLoad:
    def test_idle_host_runs_at_base(self):
        activity = HostActivity()
        load = CoupledLoad(activity, "h", alpha=1.0)
        assert load.factor(0.0) == 1.0

    def test_neighbours_slow_the_host(self):
        activity = HostActivity()
        load = CoupledLoad(activity, "h", alpha=0.5)
        activity.enter("h")
        activity.enter("h")
        assert load.factor(0.0) == pytest.approx(2.0)  # 1 + 0.5*2

    def test_validation(self):
        with pytest.raises(ValueError):
            CoupledLoad(HostActivity(), "h", alpha=-1.0)


class TestColocatedServices:
    def _deploy_second_service(self, scenario, hosts):
        """Deploy a second service onto the same replica hosts."""
        interface = make_interface("billing", "charge")
        activity = scenario.manager.host_activity
        spec = ServiceSpec(
            service="billing",
            servant_factory=lambda: IntegerServant(interface),
            profile_factory=lambda host: ServiceProfile(
                default=Constant(30.0),
                load=CoupledLoad(activity, host, alpha=1.0),
            ),
            replication_level=len(hosts),
        )
        scenario.manager.deploy(spec, hosts)
        return interface

    def test_two_services_share_hosts(self):
        scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
        interface = self._deploy_second_service(
            scenario, scenario.config.replica_hosts()
        )
        assert scenario.group_comm.view("billing").members == (
            "replica-1", "replica-2",
        )
        search = scenario.manager.handler_on("replica-1", service="search")
        billing = scenario.manager.handler_on("replica-1", service="billing")
        assert search is not billing

    def test_same_service_twice_on_host_rejected(self):
        scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
        with pytest.raises(ValueError):
            scenario.manager.start_replica("search", "replica-1")

    def test_ambiguous_handler_lookup_needs_service(self):
        scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
        self._deploy_second_service(scenario, scenario.config.replica_hosts())
        with pytest.raises(KeyError):
            scenario.manager.handler_on("replica-1")

    def test_crash_takes_down_all_colocated_replicas(self):
        scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
        self._deploy_second_service(scenario, scenario.config.replica_hosts())
        scenario.faults.crash_now("replica-1")
        search = scenario.manager.handler_on("replica-1", service="search")
        billing = scenario.manager.handler_on("replica-1", service="billing")
        assert search.crashed
        assert billing.crashed

    def test_crash_and_restart_cover_both_services_of_a_host(self):
        scenario = Scenario(ScenarioConfig(seed=0, num_replicas=2))
        self._deploy_second_service(scenario, scenario.config.replica_hosts())
        search = scenario.manager.handler_on("replica-1", service="search")
        billing = scenario.manager.handler_on("replica-1", service="billing")
        scenario.schedule_crash("replica-1", at_ms=100.0, recover_at_ms=1_000.0)
        scenario.run(until=900.0)
        # Both handlers stopped at the crash; the detector evicted the
        # host from both groups.
        assert search.crashed and billing.crashed
        for service in ("search", "billing"):
            assert scenario.group_comm.view(service).members == ("replica-2",)
        scenario.run(until=1_100.0)
        # One restart: both are fresh incarnations, back in their groups.
        assert not search.crashed and not billing.crashed
        for service in ("search", "billing"):
            assert "replica-1" in scenario.group_comm.view(service)
        assert scenario.faults.crashes_applied == 1
        assert scenario.faults.restarts_applied == 1

    def test_coupled_load_slows_busy_neighbours(self):
        # One host runs both services; the second service's duration is
        # scaled by co-located activity.
        scenario = Scenario(
            ScenarioConfig(
                seed=0,
                num_replicas=1,
                service_distribution_factory=lambda host: Constant(200.0),
            )
        )
        interface = self._deploy_second_service(scenario, ["replica-1"])
        # Client of the second (coupled) service.
        handler = TimingFaultClientHandler(
            sim=scenario.sim,
            host=scenario.lan.add_host("billing-client").name,
            transport=scenario.transport,
            group_comm=scenario.group_comm,
            interface=interface,
            qos=QoSSpec("billing", 10_000.0, 0.0),
            marshalling=scenario.marshalling,
            rng=scenario.streams.stream("billing-client.policy"),
        )
        scenario.gateway_for("billing-client").load_handler(handler)
        orb = Orb()
        orb.register_interface(interface)
        orb.bind_interceptor("billing", handler)

        # Fire a long search request, then a billing request mid-service.
        search_client = scenario.add_client(
            "search-client",
            QoSSpec("search", 10_000.0, 0.0),
            num_requests=1,
        )
        billing_event = {}

        def fire_billing():
            billing_event["event"] = orb.stub("billing").invoke("charge", 1)

        scenario.sim.call_in(100.0, fire_billing)  # search still in service
        scenario.run_to_completion()
        scenario.sim.run()
        outcome = billing_event["event"].value
        # Base 30 ms, but the busy search neighbour doubles it (alpha=1).
        assert outcome.response_time_ms > 55.0
