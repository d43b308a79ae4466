"""Regression tests for the pending/alias leak family.

Each test pins one of the lifecycle fixes:

* a retransmitted copy's book entry is consumed by its reply AND dropped
  when the original request is forgotten (crashed target, lost reply),
* completed request records are dropped as soon as no redundant
  reply can arrive any more (not at the 10×deadline response timeout),
* the retry chain is armed on the request's own msg_id, not on
  the largest pending id,
* a request that reaches zero replicas (empty view, stale view) fails
  fast as a timeout instead of burning the full response timeout,
* probe bookkeeping is bounded when probe replies are lost.
"""

import pytest

from repro.core.baselines import BestSinglePolicy
from repro.faultinject import DropRule, FaultSchedule
from repro.gateway.handlers.timing_fault import MSG_PROBE_REPLY
from repro.sim.random import Constant

from .conftest import SERVICE, FaultStack, stray_record


def _retrans_stack(servers=2, **client_kwargs):
    stack = FaultStack()
    for index in range(servers):
        stack.add_server(f"s-{index + 1}", service_time=Constant(10.0))
    client_kwargs.setdefault("deadline_ms", 200.0)
    handler = stack.add_client(
        "c-1", policy=BestSinglePolicy(), retry=True, **client_kwargs
    )
    return stack, handler


def test_alias_popped_when_copy_reply_folds_back():
    # Retries at 5 and 15 ms; both 12 ms replies are in by 17 ms.
    stack, handler = _retrans_stack(deadline_ms=10.0)
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    assert not event.value.timed_out
    assert handler.retransmissions == 1
    # Both the original and the copy replied; nothing may survive.
    assert handler.lifecycle_leaks() == {}
    assert handler.pending == {}
    stack.auditor.assert_clean()


def test_alias_dropped_when_original_request_expires():
    stack, handler = _retrans_stack(deadline_ms=10.0, response_timeout_factor=3.0)
    driver = stack.faults
    # Both replicas fail-stop after the first send but before any reply:
    # the retransmitted copies can never be answered.
    stack.sim.call_at(2.0, lambda: driver.crash_now("s-1"))
    stack.sim.call_at(2.0, lambda: driver.crash_now("s-2"))
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    assert event.value.timed_out
    assert handler.retransmissions >= 1  # copies were created, then leaked?
    assert handler.lifecycle_leaks() == {}  # ...no: expiry cleaned them up
    assert handler.pending == {}
    report = stack.auditor.assert_clean()
    assert report.timeouts == 1


def test_retry_chain_is_armed_on_the_threaded_msg_id():
    stack, handler = _retrans_stack(deadline_ms=40.0)
    # Preferred replica goes silent (still in the view: the LAN is up, so
    # the failure detector never evicts it).
    stack.servers["s-1"].crash()
    # A decoy pending entry with a huge msg_id: code that infers "the
    # request I just created" via the largest pending id picks this one
    # and never retransmits.
    decoy_id = 10**9
    handler.engine.book.open(decoy_id, stray_record(completed=True))
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    outcome = event.value
    assert not outcome.timed_out
    assert outcome.replica == "s-2"
    assert handler.retransmissions >= 1
    handler.engine.book.forget(decoy_id)
    assert handler.lifecycle_leaks() == {}


def test_pending_dropped_once_all_expected_replies_arrived():
    stack = FaultStack()
    for index in range(3):
        stack.add_server(f"s-{index + 1}", service_time=Constant(10.0))
    client = stack.add_client("c-1", deadline_ms=100.0)
    event = stack.invoke("c-1", 0)
    # Well before the 10×deadline response timeout: every selected replica
    # has replied by ~12 ms, so the record must already be gone.
    stack.sim.run(until=60.0)
    assert event.processed
    assert not event.value.timed_out
    assert client.pending == {}
    stack.sim.run()
    stack.auditor.assert_clean()


def test_empty_view_fails_fast_as_timeout():
    stack = FaultStack()
    client = stack.add_client("c-1", deadline_ms=100.0)
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    outcome = event.value
    assert outcome.timed_out
    assert outcome.replica is None
    assert outcome.response_time_ms == pytest.approx(0.0)
    # The whole run drained long before even one deadline, let alone the
    # 10×deadline response timeout the old code waited for.
    assert stack.sim.now < 100.0
    assert client.pending == {}
    report = stack.auditor.assert_clean()
    assert report.timeouts == 1


def test_stale_view_membership_error_fails_fast():
    stack = FaultStack()
    stack.add_server("s-1")
    stack.add_server("s-2")
    client = stack.add_client("c-1", deadline_ms=100.0)
    # Drain the join/subscribe traffic, then empty the group: the views
    # are announced NOTIFY_DELAY_MS later, so a request sent at once finds
    # the client's member list entirely stale and the multicast raises.
    stack.sim.run()
    stack.group_comm.leave(SERVICE, "s-1")
    stack.group_comm.leave(SERVICE, "s-2")
    assert client.members  # stale on purpose
    start = stack.sim.now
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    outcome = event.value
    assert outcome.timed_out
    assert stack.sim.now - start < 100.0
    assert client.pending == {}


def test_probe_bookkeeping_is_bounded_when_replies_are_lost():
    schedule = FaultSchedule(
        drops=(DropRule(start_ms=0.0, end_ms=1e9, kinds=(MSG_PROBE_REPLY,)),)
    )
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client(
        "c-1", probe_staleness_ms=20.0, probe_interval_ms=30.0
    )
    stack.faults.apply(schedule)
    stack.sim.run(until=400.0)
    assert client.probes_sent >= 5
    assert stack.transport.injected_drops >= 5
    # Every lost probe was given up on after one interval; without the
    # expiry the in-flight map grows by one entry per tick forever.
    assert client.probes_expired >= client.probes_sent - 2
    assert len(client.probes) <= 2
