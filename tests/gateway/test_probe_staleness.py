"""Probe/staleness interaction: a replica whose model window goes stale
while a verification probe is already in flight must not be double-probed,
and the in-flight probe must not make the record look fresh."""

from repro.health import HealthConfig, HealthState
from repro.sim.random import Constant

from .conftest import MiniStack


def probing_client(stack: MiniStack, **kwargs):
    kwargs.setdefault("deadline_ms", 1000.0)
    kwargs.setdefault("probe_staleness_ms", 50.0)
    kwargs.setdefault("probe_interval_ms", 100.0)
    return stack.add_client("client-1", **kwargs)


class TestInFlightGuard:
    def test_stale_replica_is_probed_once_not_twice(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(stack)
        # Cold record -> infinitely stale -> due.  The first tick sends
        # exactly one probe; while it is in flight (no reply processed,
        # the simulator never ran) a second tick must not send another.
        client.engine.probe_tick()
        assert client.probes_sent == 1
        assert len(client.probes) == 1
        client.engine.probe_tick()
        assert client.probes_sent == 1

    def test_health_due_probe_is_not_duplicated_while_in_flight(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(
            stack,
            probe_staleness_ms=None,
            health_config=HealthConfig(backoff_initial_ms=50.0),
        )
        for at in (1.0, 2.0, 3.0):
            client.health.record_fault("replica-1", at)
        assert client.health.state("replica-1") is HealthState.QUARANTINED
        client.health.record_for("replica-1").next_probe_at_ms = 0.0
        client.engine.probe_tick()
        assert client.probes_sent == 1
        # Force the replica due again: even so, the in-flight guard wins.
        client.health.record_for("replica-1").next_probe_at_ms = 0.0
        client.engine.probe_tick()
        assert client.probes_sent == 1

    def test_both_paths_due_still_yield_a_single_probe(self):
        # Staleness AND health both nominate the same replica in one tick.
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(
            stack,
            health_config=HealthConfig(backoff_initial_ms=50.0),
        )
        for at in (1.0, 2.0):
            client.health.record_fault("replica-1", at)  # SUSPECTED: due every tick
        assert client.health.state("replica-1") is HealthState.SUSPECTED
        client.engine.probe_tick()
        assert client.probes_sent == 1

    def test_in_flight_probe_does_not_refresh_the_record(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(stack)
        stack.invoke("client-1", 0)
        stack.sim.run()
        record = client.repository.record("replica-1")
        updated_at = record.last_update_ms
        client.engine.send_probe("replica-1")
        # Only the probe *reply* refreshes the window; the send must not.
        assert record.last_update_ms == updated_at

    def test_expired_probe_frees_the_slot_for_reprobing(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(stack)
        client.engine.probe_tick()
        assert client.probes_sent == 1
        (msg_id,) = client.probes
        client.engine.expire_probe(msg_id)
        assert client.probes == {}
        client.engine.probe_tick()
        assert client.probes_sent == 2

    def test_probe_expiry_feeds_health_as_probe_failure(self):
        stack = MiniStack()
        stack.add_server("replica-1", service_time=Constant(10.0))
        client = probing_client(
            stack,
            probe_staleness_ms=None,
            health_config=HealthConfig(backoff_initial_ms=50.0),
        )
        for at in (1.0, 2.0):
            client.health.record_fault("replica-1", at)
        assert client.health.state("replica-1") is HealthState.SUSPECTED
        client.engine.probe_tick()  # suspected replicas are probed every tick
        (msg_id,) = client.probes
        client.engine.expire_probe(msg_id)
        assert client.health.state("replica-1") is HealthState.QUARANTINED
