"""Tests for the paper's §8 extensions: classification, probing,
gateway-delay windows."""

import pytest

from repro.gateway.handlers.timing_fault import (
    DEFAULT_CLASS,
    method_classifier,
)
from repro.orb.object import MethodRequest, MethodSignature
from repro.sim.random import Constant

from .conftest import SERVICE, MiniStack


def test_method_classifier():
    request = MethodRequest("svc", "lookup", (1,))
    assert method_classifier(request) == "lookup"


class TestRequestClassification:
    def _two_method_stack(self):
        """A stack whose interface has a cheap and an expensive method."""
        stack = MiniStack()
        stack.interface.add_method(MethodSignature("heavy"))
        stack.lan.add_host("replica-1")

        from repro.gateway.gateway import Gateway
        from repro.gateway.handlers.timing_fault import TimingFaultServerHandler
        from repro.orb.object import Servant
        from repro.replica.load import ServiceProfile
        from repro.replica.server import ReplicaApplication

        servant = Servant(stack.interface)
        servant.process = lambda i: i
        servant.heavy = lambda i: -i
        app = ReplicaApplication(
            host="replica-1",
            servant=servant,
            profile=ServiceProfile(
                default=Constant(10.0),
                per_method={"heavy": Constant(120.0)},
            ),
            streams=stack.streams,
        )
        handler = TimingFaultServerHandler(
            sim=stack.sim, app=app, transport=stack.transport,
            marshalling=stack.marshalling,
        )
        Gateway("replica-1", stack.sim, stack.transport).load_handler(handler)
        stack.group_comm.join(SERVICE, "replica-1")
        stack.servers["replica-1"] = handler
        return stack

    def test_classified_history_is_kept_apart(self):
        stack = self._two_method_stack()
        client = stack.add_client(
            "client-1", deadline_ms=1000.0, classifier=method_classifier
        )
        stub = stack.stubs["client-1"]
        for i in range(3):
            event = stub.invoke("process", i)
            stack.sim.run()
            event = stub.invoke("heavy", i)
            stack.sim.run()
        assert set(client.request_classes()) == {DEFAULT_CLASS, "process", "heavy"}
        cheap = client.engine.models.repository_for("process").record("replica-1")
        costly = client.engine.models.repository_for("heavy").record("replica-1")
        assert max(cheap.service_times.values()) < 20.0
        assert min(costly.service_times.values()) > 100.0

    def test_classified_model_predicts_per_method(self):
        stack = self._two_method_stack()
        client = stack.add_client(
            "client-1", deadline_ms=50.0, classifier=method_classifier
        )
        stub = stack.stubs["client-1"]
        for i in range(3):
            event = stub.invoke("process", i)
            stack.sim.run()
            event = stub.invoke("heavy", i)
            stack.sim.run()
        fast = client.engine.models.estimator_for("process").probability_by("replica-1", 50.0)
        slow = client.engine.models.estimator_for("heavy").probability_by("replica-1", 50.0)
        assert fast == pytest.approx(1.0)
        assert slow == pytest.approx(0.0)

    def test_pooled_model_blurs_the_methods(self):
        # Without classification, both methods share one history and the
        # model is wrong for both — the motivation for the extension.
        stack = self._two_method_stack()
        client = stack.add_client("client-1", deadline_ms=50.0)
        stub = stack.stubs["client-1"]
        for i in range(3):
            event = stub.invoke("process", i)
            stack.sim.run()
            event = stub.invoke("heavy", i)
            stack.sim.run()
        pooled = client.estimator.probability_by("replica-1", 50.0)
        assert 0.0 < pooled < 1.0

    def test_default_class_always_present(self):
        stack = MiniStack()
        stack.add_server("replica-1")
        client = stack.add_client("client-1")
        assert client.request_classes() == [DEFAULT_CLASS]


class TestGatewayDelayWindow:
    def test_window_collects_delays(self, stack):
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = stack.add_client(
            "client-1", deadline_ms=1000.0, gateway_window_size=4
        )
        for i in range(3):
            stack.invoke("client-1", i)
            stack.sim.run()
        record = client.repository.record("replica-1")
        assert record.gateway_delays is not None
        assert len(record.gateway_delays) == 3

    def test_estimator_convolves_gateway_distribution(self, stack):
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = stack.add_client(
            "client-1", deadline_ms=1000.0, gateway_window_size=4
        )
        for i in range(3):
            stack.invoke("client-1", i)
            stack.sim.run()
        pmf = client.estimator.response_time_pmf("replica-1")
        # Deterministic MiniStack: every T sample identical, so mean must
        # equal service + queue + T regardless of representation.
        record = client.repository.record("replica-1")
        expected = (
            sum(record.service_times.values()) / len(record.service_times)
            + sum(record.queue_delays.values()) / len(record.queue_delays)
            + record.gateway_delay_ms
        )
        assert pmf.mean() == pytest.approx(expected, abs=0.6)


class TestActiveProbing:
    def test_probe_refreshes_stale_records(self):
        stack = MiniStack()
        server = stack.add_server("replica-1", service_time=Constant(10.0))
        client = stack.add_client(
            "client-1",
            deadline_ms=1000.0,
            probe_staleness_ms=500.0,
            probe_interval_ms=100.0,
        )
        stack.invoke("client-1", 0)
        stack.sim.run()
        record = client.repository.record("replica-1")
        updated_at = record.last_update_ms
        # Idle for two seconds: the record goes stale, probes fire.
        stack.sim.run(until=stack.sim.now + 2000.0)
        assert client.probes_sent >= 1
        assert server.probes_answered >= 1
        assert record.last_update_ms > updated_at

    def test_no_probes_while_traffic_is_fresh(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = stack.add_client(
            "client-1",
            deadline_ms=1000.0,
            probe_staleness_ms=10_000.0,
            probe_interval_ms=100.0,
        )
        stack.invoke("client-1", 0)
        stack.sim.run(until=stack.sim.now + 1000.0)
        assert client.probes_sent == 0

    def test_probes_do_not_enter_the_fifo_queue(self):
        stack = MiniStack()
        server = stack.add_server("replica-1", service_time=Constant(500.0))
        client = stack.add_client(
            "client-1",
            deadline_ms=10_000.0,
            probe_staleness_ms=50.0,
            probe_interval_ms=100.0,
        )
        # Park a long request in service, then let probes fire during it.
        stack.invoke("client-1", 0)
        stack.sim.run(until=stack.sim.now + 400.0)
        assert server.probes_answered >= 1  # answered while busy
        # The probe saw the in-service request in the queue-length count.
        assert client.repository.record("replica-1").queue_length >= 1

    def test_probing_is_daemon_activity(self):
        stack = MiniStack()
        stack.add_server("replica-1")
        stack.add_client(
            "client-1", deadline_ms=1000.0, probe_staleness_ms=100.0
        )
        stack.sim.run()  # must terminate despite the probe loop
        assert True

    def test_probe_parameter_validation(self):
        stack = MiniStack()
        stack.add_server("replica-1")
        with pytest.raises(ValueError):
            stack.add_client("client-x", probe_staleness_ms=0.0)
        with pytest.raises(ValueError):
            stack.add_client("client-y", probe_interval_ms=0.0)
