"""Crash-mid-service and restart race coverage for the server handler."""

import pytest

from repro.sim.random import Constant

from .conftest import FaultStack


def test_crash_mid_service_loses_reply_exactly_once():
    stack = FaultStack()
    stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    event = stack.invoke("c-1", 0)
    # The request is in service from t=1 to t=11; crash in the middle.
    stack.sim.call_at(5.0, lambda: driver.crash_now("s-1"))
    outcomes = []
    event.add_callback(lambda e: outcomes.append(e.value))
    stack.sim.run()
    assert len(outcomes) == 1
    assert outcomes[0].timed_out
    assert stack.servers["s-1"].replies == 0
    stack.auditor.assert_clean()


def test_restart_services_new_requests_exactly_once():
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    stack.schedule_crash("s-1", at_ms=5.0, recover_at_ms=50.0)
    first = stack.invoke("c-1", 0)
    later = []
    stack.sim.call_at(400.0, lambda: later.append(stack.invoke("c-1", 1)))
    stack.sim.run()
    assert first.value.timed_out
    second = later[0].value
    assert not second.timed_out
    assert second.replica == "s-1"
    assert server.replies == 1  # new incarnation replied exactly once
    assert driver.crashes_applied == 1
    assert driver.restarts_applied == 1
    report = stack.auditor.assert_clean()
    assert report.replies == 1
    assert report.timeouts == 1


def test_old_service_loop_cannot_drain_the_new_queue():
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(50.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    first = stack.invoke("c-1", 1)
    second = stack.invoke("c-1", 2)  # queued behind the first
    old_process = server._process
    stack.schedule_crash("s-1", at_ms=20.0, recover_at_ms=60.0)
    later = []
    stack.sim.call_at(400.0, lambda: later.append(stack.invoke("c-1", 3)))
    stack.sim.run()
    # The crashed incarnation's loop is dead and was replaced.
    assert server._process is not old_process
    assert not old_process.alive
    # Both pre-crash requests died with the queue; only the post-restart
    # request was serviced, exactly once, by the new loop.
    assert first.value.timed_out
    assert second.value.timed_out
    assert not later[0].value.timed_out
    assert server.replies == 1
    assert server.queue_length == 0
    stack.auditor.assert_clean()


def test_restart_replaces_the_wakeup_event():
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    stack.sim.run(until=5.0)  # let the idle loop block on its wakeup
    old_wakeup = server._wakeup
    assert old_wakeup is not None
    # Crash and restart before the failure detector even notices (the
    # member never leaves the view): the fresh loop must wait on a fresh
    # event, not the interrupted incarnation's.
    driver.crash_now("s-1")
    driver.restart_now("s-1")
    stack.sim.run(until=10.0)
    assert server._wakeup is not None
    assert server._wakeup is not old_wakeup
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    assert not event.value.timed_out
    stack.auditor.assert_clean()


def test_driver_crash_restart_churn_are_idempotent():
    stack = FaultStack()
    stack.add_server("s-1")
    driver = stack.faults
    driver.crash_now("s-1")
    driver.crash_now("s-1")  # already down: no-op
    assert driver.crashes_applied == 1
    driver.restart_now("s-1")
    driver.restart_now("s-1")  # already up: no-op
    assert driver.restarts_applied == 1
    driver.leave_now("s-1")
    driver.leave_now("s-1")  # already out of the view: no-op
    assert driver.leaves_applied == 1
    driver.rejoin_now("s-1")
    driver.rejoin_now("s-1")  # already back: no-op
    assert driver.rejoins_applied == 1


def test_driver_rejects_unknown_host():
    stack = FaultStack()
    stack.add_server("s-1")
    with pytest.raises(ValueError, match="crashes.*'ghost'"):
        stack.schedule_crash("ghost", at_ms=1.0)


def test_churned_member_is_not_resurrected_by_stale_pushes():
    stack = FaultStack()
    stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_server("s-2", service_time=Constant(10.0))
    client = stack.add_client("c-1", deadline_ms=100.0)
    driver = stack.faults
    event = stack.invoke("c-1", 0)
    # s-2 leaves the view while its reply (and perf push) is still being
    # produced: the late data must not re-create its repository record.
    stack.sim.call_at(3.0, lambda: driver.leave_now("s-2"))
    stack.sim.run()
    assert not event.value.timed_out
    assert "s-2" not in client.repository
    assert client.members == ["s-1"]
    stack.auditor.assert_clean()
