"""Unit tests for the client side of the timing fault handler."""

import pytest

from repro.core.estimator import QueueScaledEstimator
from repro.core.qos import QoSSpec
from repro.sim.random import Constant

from .conftest import SERVICE


def test_qos_service_must_match_interface(stack):
    stack.add_server("replica-1")
    with pytest.raises(ValueError):
        stack.add_client("client-1", deadline_ms=100.0).renegotiate_qos(
            QoSSpec("other", 100.0, 0.5)
        )


def test_the_handler_reads_the_clock_its_host_is_given(stack):
    # The clock-fault plane skews a host through the registry's clock.
    assert stack.add_client("client-1").clock is stack.clocks.clock("client-1")


def test_first_request_bootstraps_to_all_replicas(stack):
    for i in range(3):
        stack.add_server(f"replica-{i + 1}", service_time=Constant(10.0))
    stack.add_client("client-1", deadline_ms=1000.0)
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    assert event.value.redundancy == 3
    assert event.value.decision_meta.get("bootstrap") is True


def test_second_request_uses_the_model(stack):
    for i in range(3):
        stack.add_server(f"replica-{i + 1}", service_time=Constant(10.0))
    stack.add_client("client-1", deadline_ms=1000.0, min_probability=0.0)
    first = stack.invoke("client-1", 0)
    stack.sim.run()
    second = stack.invoke("client-1", 1)
    stack.sim.run()
    assert second.value.decision_meta.get("bootstrap") is False
    # Pc = 0 selects Algorithm 1's floor of two replicas.
    assert second.value.redundancy == 2


def test_first_reply_wins_and_duplicates_update_repository(stack):
    stack.add_server("replica-fast", service_time=Constant(10.0))
    stack.add_server("replica-slow", service_time=Constant(80.0))
    client = stack.add_client("client-1", deadline_ms=1000.0)
    event = stack.invoke("client-1", 0)  # bootstrap: goes to both
    stack.sim.run()
    assert event.value.replica == "replica-fast"
    # The slow duplicate was discarded but its perf data retained.
    slow = client.repository.record("replica-slow")
    assert len(slow.service_times) == 1
    assert slow.gateway_delay_ms is not None


def test_response_time_measured_from_interception(stack):
    stack.add_server("replica-1", service_time=Constant(40.0))
    stack.add_client("client-1", deadline_ms=1000.0)
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    tr = event.value.response_time_ms
    # service 40 + two 1 ms hops; no jitter, no marshalling in MiniStack.
    assert tr == pytest.approx(42.0, abs=0.5)


def test_timing_failure_detected_when_late(stack):
    stack.add_server("replica-1", service_time=Constant(100.0))
    client = stack.add_client("client-1", deadline_ms=50.0)
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    assert event.value.timely is False
    assert not event.value.timed_out  # the reply did arrive, just late
    assert client.stats.timing_failures == 1


def test_gateway_delay_computation(stack):
    stack.add_server("replica-1", service_time=Constant(40.0))
    client = stack.add_client("client-1", deadline_ms=1000.0)
    stack.invoke("client-1", 0)
    stack.sim.run()
    record = client.repository.record("replica-1")
    # td = t4 - t1 - tq - ts = round-trip minus queue minus service = 2 ms.
    assert record.gateway_delay_ms == pytest.approx(2.0, abs=0.2)


def test_expiry_when_no_replica_replies(stack):
    server = stack.add_server("replica-1", service_time=Constant(10.0))
    client = stack.add_client("client-1", deadline_ms=20.0)
    server.crash()
    event = stack.invoke("client-1", 0)
    fired = []
    event.add_callback(lambda e: fired.append(stack.sim.now))
    stack.sim.run()
    outcome = event.value
    assert outcome.timed_out
    assert fired == [outcome.t4_ms]  # delivered at the expiry: no upcall cost
    assert outcome.timely is False
    factor = client.engine.config.response_timeout_factor
    assert outcome.response_time_ms >= 20.0 * factor - 1
    assert client.stats.timing_failures == 1


def test_view_change_purges_crashed_replica(stack):
    stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_server("replica-2", service_time=Constant(10.0))
    client = stack.add_client("client-1", deadline_ms=1000.0)
    stack.sim.run()
    assert client.repository.replicas() == ["replica-1", "replica-2"]
    stack.lan.mark_down("replica-2")
    stack.servers["replica-2"].crash()
    stack.sim.run(until=stack.sim.now + 500.0)
    assert client.repository.replicas() == ["replica-1"]


def test_a_crash_declaration_reaches_the_health_monitor(stack):
    from repro.health import HealthConfig, HealthState

    stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_server("replica-2", service_time=Constant(10.0))
    client = stack.add_client(
        "client-1", deadline_ms=1000.0, health_config=HealthConfig()
    )
    stack.sim.run()
    stack.faults.crash_now("replica-2")
    stack.sim.run(until=stack.sim.now + 500.0)
    assert [(e.replica, e.new_state, e.reason) for e in client.health.events] == [
        ("replica-2", HealthState.QUARANTINED, "crash")
    ]


def test_requests_avoid_evicted_replica(stack):
    stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_server("replica-2", service_time=Constant(10.0))
    client = stack.add_client("client-1", deadline_ms=1000.0)
    stack.sim.run()
    stack.lan.mark_down("replica-2")
    stack.servers["replica-2"].crash()
    stack.sim.run(until=stack.sim.now + 500.0)
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    assert event.value.replica == "replica-1"
    assert event.value.redundancy == 1


def test_violation_callback_fires_once_per_episode(stack):
    stack.add_server("replica-1", service_time=Constant(100.0))
    violations = []
    client = stack.add_client(
        "client-1",
        deadline_ms=50.0,
        min_probability=0.9,
        violation_callback=lambda svc, p, spec: violations.append((svc, p)),
    )
    for i in range(12):
        event = stack.invoke("client-1", i)
        stack.sim.run()
        # Never before 10 responses were observed, whatever the ratio.
        assert len(violations) == (0 if i < 9 else 1)
    assert len(violations) == 1  # edge-triggered, not once per failure
    assert violations[0][0] == SERVICE
    assert violations[0][1] < 0.9


def test_renegotiation_resets_stats(stack):
    stack.add_server("replica-1", service_time=Constant(100.0))
    client = stack.add_client("client-1", deadline_ms=50.0, min_probability=0.9)
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    assert client.stats.timing_failures == 1
    client.renegotiate_qos(QoSSpec(SERVICE, 500.0, 0.5))
    assert client.stats.responses == 0
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    assert event.value.timely  # the new deadline is generous


def test_renegotiated_deadline_is_read_by_the_next_decision(stack):
    # The estimator keeps F at the deadline it was last asked for.  The
    # replica that sat out the last request has a clean row: its F must
    # come from the new deadline, not from the kept vector.
    for i in range(3):
        stack.add_server(f"replica-{i + 1}", service_time=Constant(40.0))
    client = stack.add_client("client-1", deadline_ms=1000.0, min_probability=0.9)
    for i in range(2):  # select-all bootstrap, then two of three
        event = stack.invoke("client-1", i)
        stack.sim.run()
    assert event.value.redundancy == 2
    assert set(event.value.decision_meta["probabilities"].values()) == {1.0}
    charge = client.engine.config.selection_charge_ms
    for deadline, probability in ((20.0, 0.0), (1000.0, 1.0)):
        client.renegotiate_qos(QoSSpec(SERVICE, deadline, 0.9))
        event = stack.invoke("client-1", 2)
        stack.sim.run()
        meta = event.value.decision_meta
        assert meta["effective_deadline_ms"] == deadline - charge
        assert meta["probabilities"] == {
            name: client.estimator.probability_by(name, deadline - charge)
            for name in client.repository.replicas()
        }
        assert set(meta["probabilities"].values()) == {probability}


def test_constructor_validation(stack):
    stack.add_server("replica-1")
    with pytest.raises(ValueError):
        stack.add_client("client-x", deadline_ms=100.0, response_timeout_factor=1.0)
    with pytest.raises(ValueError):
        stack.add_client("client-y", deadline_ms=100.0, selection_charge_ms=-1.0)
    # Accepted silently before EngineConfig: a factory building on
    # another grid than the client's.
    with pytest.raises(ValueError, match="1.0 ms lattice"):
        stack.add_client(
            "client-w",
            estimator_factory=lambda repo: QueueScaledEstimator(
                repo, bin_width_ms=0.25
            ),
        )
    with pytest.raises(TypeError, match="window_sise"):
        stack.add_client("client-v", window_sise=3)


def test_stale_perf_push_does_not_resurrect_evicted_replica(stack):
    from repro.gateway.handlers.timing_fault import MSG_PERF, PerformanceUpdate
    from repro.net.message import Message

    stack.add_server("replica-1", service_time=Constant(10.0))
    client = stack.add_client("client-1", deadline_ms=1000.0)
    stack.sim.run()
    client.repository.remove_replica("replica-1")
    perf = PerformanceUpdate(
        replica="replica-1", service=SERVICE,
        service_time_ms=10.0, queue_delay_ms=0.0, queue_length=0,
    )
    client.handle_message(
        Message(
            sender="replica-1", destination="client-1", kind=MSG_PERF,
            payload={"service": SERVICE, "replica": "replica-1", "perf": perf},
        )
    )
    assert "replica-1" not in client.repository
