"""Tests for the retransmission-based client handler."""

import pytest

from repro.engine import EngineConfig
from repro.engine.engine import MAX_RETRIES
from repro.gateway.handlers.retransmit import RetransmittingClientHandler
from repro.sim.random import Constant

from .conftest import MiniStack


def _stack_with(handler_kwargs=None, servers=2, service_time=None):
    stack = MiniStack()
    for index in range(servers):
        stack.add_server(
            f"replica-{index + 1}", service_time=service_time or Constant(10.0)
        )
    return stack


def _add_retry_client(stack, deadline=200.0, **options):
    from repro.core.qos import QoSSpec
    from repro.gateway.gateway import Gateway
    from repro.orb.orb import Orb

    stack.lan.add_host("client-1")
    handler = RetransmittingClientHandler(
        sim=stack.sim,
        host="client-1",
        transport=stack.transport,
        group_comm=stack.group_comm,
        interface=stack.interface,
        qos=QoSSpec("search", deadline, 0.0),
        config=EngineConfig(selection_charge_ms=0.0, **options),
        marshalling=stack.marshalling,
        rng=stack.streams.stream("client-1.policy"),
    )
    Gateway("client-1", stack.sim, stack.transport).load_handler(handler)
    orb = Orb()
    orb.register_interface(stack.interface)
    orb.bind_interceptor("search", handler)
    stack.clients["client-1"] = handler
    stack.stubs["client-1"] = orb.stub("search")
    return handler


def test_sends_to_single_replica_after_bootstrap():
    stack = _stack_with(servers=3)
    handler = _add_retry_client(stack)
    first = stack.invoke("client-1", 0)  # bootstrap: all replicas
    stack.sim.run()
    second = stack.invoke("client-1", 1)
    stack.sim.run()
    assert second.value.redundancy == 1
    assert handler.retransmissions == 0  # fast reply, no retry needed


def test_retransmits_when_replica_is_silent():
    stack = _stack_with(servers=2, service_time=Constant(10.0))
    handler = _add_retry_client(stack, deadline=100.0)
    # Warm up the model so routing is single-replica.
    event = stack.invoke("client-1", 0)
    stack.sim.run()
    # Kill the preferred replica silently (still in the view for a bit).
    preferred = event.value.replica
    stack.servers[preferred].crash()
    second = stack.invoke("client-1", 1)
    stack.sim.run()
    outcome = second.value
    assert handler.retransmissions >= 1
    assert not outcome.timed_out
    assert outcome.replica != preferred
    # The retry burned at least one retry timeout (half the deadline).
    assert outcome.response_time_ms > 50.0


def test_gives_up_after_max_retries():
    stack = _stack_with(servers=2)
    handler = _add_retry_client(stack, deadline=60.0)
    stack.invoke("client-1", 0)
    stack.sim.run()
    for server in stack.servers.values():
        server.crash()
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    assert event.value.timed_out
    assert handler.retransmissions == MAX_RETRIES  # then gave up


def test_duplicate_replies_after_retransmit_are_discarded():
    # Slow service + aggressive retry: the original reply and the
    # retransmitted reply both arrive; only one outcome is delivered.
    stack = _stack_with(servers=2, service_time=Constant(80.0))
    handler = _add_retry_client(stack, deadline=40.0)
    stack.invoke("client-1", 0)
    stack.sim.run()
    outcomes = []
    event = stack.invoke("client-1", 1)
    event.add_callback(lambda e: outcomes.append(e.value))
    stack.sim.run()
    assert len(outcomes) == 1
    assert handler.retransmissions >= 1


def test_rejects_custom_policy():
    from repro.core.baselines import RandomPolicy

    stack = _stack_with()
    with pytest.raises(ValueError):
        _add_retry_client(stack, policy=RandomPolicy(1))


def test_default_retry_timeout_is_half_deadline():
    stack = _stack_with()
    handler = _add_retry_client(stack, deadline=300.0)
    assert handler.engine.retry_wait_ms(1) == pytest.approx(150.0)


def test_retry_backoff_doubles_up_to_the_cap():
    stack = _stack_with()
    handler = _add_retry_client(stack, deadline=400.0)
    waits = [handler.engine.retry_wait_ms(attempt) for attempt in (1, 2, 3, 4)]
    assert waits == pytest.approx([200.0, 400.0, 400.0, 400.0])


def test_backoff_cap_defaults_to_the_deadline():
    stack = _stack_with()
    handler = _add_retry_client(stack, deadline=300.0)
    # 150 × 2^9 ≫ 300: the cap is the deadline.
    assert handler.engine.retry_wait_ms(10) == pytest.approx(300.0)


def test_backoff_spreads_retransmissions_exponentially():
    from repro.gateway.handlers.timing_fault import MSG_REQUEST
    from repro.sim.trace import Tracer

    stack = _stack_with(servers=2)
    tracer = stack.transport.tracer = Tracer()
    _add_retry_client(stack, deadline=80.0)
    stack.invoke("client-1", 0)
    stack.sim.run()
    for server in stack.servers.values():
        server.crash()
    crashed_at = stack.sim.now
    stack.invoke("client-1", 1)
    stack.sim.run()
    # The copies on the wire: one replica each, after the original send
    # (which leaves at crashed_at; the warm-up request may retry too).
    times = [
        r.time
        for r in tracer.of_kind("net.sent")
        if r.data["msg_kind"] == MSG_REQUEST and r.time > crashed_at
    ]
    assert len(times) == MAX_RETRIES
    # Waits of 40 then 80 ms: the second retransmission waits twice as long.
    assert times[0] - crashed_at == pytest.approx(40.0)
    assert times[1] - times[0] == pytest.approx(80.0)
