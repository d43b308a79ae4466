"""Crash-mid-service and restart race coverage for the server handler."""

import pytest

from repro.orb.iiop import MarshallingModel
from repro.replica.load import HostActivity
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
    old_incarnation = server._incarnation
    stack.schedule_crash("s-1", at_ms=20.0, recover_at_ms=60.0)
    later = []
    stack.sim.call_at(400.0, lambda: later.append(stack.invoke("c-1", 3)))
    stack.sim.run()
    # The crash ended the first incarnation; the restart did not start
    # another one, so the post-restart copy ran on the next number.
    assert server._incarnation == old_incarnation + 1
    assert driver.crashes_applied == driver.restarts_applied == 1
    # Both pre-crash requests died with the queue; only the post-restart
    # request was serviced, exactly once, by the new chain.
    assert first.value.timed_out
    assert second.value.timed_out
    assert not later[0].value.timed_out
    assert server.replies == 1
    assert server.app.requests_served == 1
    assert server.queue_length == 0
    stack.auditor.assert_clean()


def test_a_stale_step_that_fires_mid_service_does_nothing():
    # The crashed copy's service step is due at 51 ms; by then the server
    # is back and busy with a new copy (dequeued ~36 ms).  Firing into
    # the new incarnation must neither end that copy early nor reply.
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(50.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    first = stack.invoke("c-1", 1)
    stack.schedule_crash("s-1", at_ms=20.0, recover_at_ms=30.0)
    later = []
    stack.sim.call_at(35.0, lambda: later.append(stack.invoke("c-1", 2)))
    stack.sim.run()
    assert first.value.timed_out
    second = later[0].value
    assert not second.timed_out and second.value == 2
    # Served in full: dispatch at 35, one service time, then the reply.
    assert second.response_time_ms > 50.0
    assert server.replies == 1 and server.app.requests_served == 1
    assert server.queue_length == 0
    stack.auditor.assert_clean()


def test_a_crash_mid_service_ends_the_service_at_crash_time():
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    activity = server.app.activity = HostActivity()
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    stack.invoke("c-1", 0)
    seen = []
    stack.sim.call_at(5.0, lambda: seen.append(activity.busy("s-1")))
    stack.sim.call_at(5.0, lambda: driver.crash_now("s-1"))
    stack.sim.call_at(5.0, lambda: seen.append(activity.busy("s-1")))
    stack.sim.run()
    # In service at the crash; idle straight after it, at the same instant.
    assert seen == [1, 0]
    assert activity.busy("s-1") == 0 and server.replies == 0
    # The cut-off copy is not ended twice: by a second crash of the
    # restarted, idle server, or by its stale service step.
    driver.restart_now("s-1")
    driver.crash_now("s-1")
    assert activity.busy("s-1") == 0
    stack.auditor.assert_clean()


# With 2 ms demarshal and marshal costs on the server, the first copy
# arrives at 1 ms and is demarshalled over [1, 3), served over [3, 13) and
# marshalled over [13, 15).  Crash and restart inside one stage, then
# send a second copy that is still in progress when the crashed
# incarnation's pending step fires: that step must do nothing.
@pytest.mark.parametrize(
    "crash_at, second_at, executed",
    [(2.0, 1.5, 1), (8.0, 9.0, 1), (14.0, 13.5, 2)],
    ids=["demarshal", "service", "marshal"],
)
def test_each_stage_of_a_crashed_copy_is_inert_after_restart(
    crash_at, second_at, executed
):
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    server.marshalling = MarshallingModel(base_ms=2.0, per_kb_ms=0.0, envelope_bytes=0)
    activity = server.app.activity = HostActivity()
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    first = stack.invoke("c-1", 1)

    restarted_queue = []

    def crash_and_restart():
        driver.crash_now("s-1")
        driver.restart_now("s-1")
        restarted_queue.append(server.queue_length)

    stack.sim.call_at(crash_at, crash_and_restart)
    later = []
    stack.sim.call_at(second_at, lambda: later.append(stack.invoke("c-1", 2)))
    stack.sim.run()
    assert first.value.timed_out and restarted_queue == [0]
    second = later[0].value
    assert not second.timed_out and second.value == 2
    # Cut off in marshal, the first copy had run on the servant already.
    assert server.replies == 1 and server.app.requests_served == executed
    assert activity.busy("s-1") == 0 and server.queue_length == 0
    # The second copy took its three stages in full: 2 + 10 + 2 ms.
    assert server.busy_ms == pytest.approx(14.0)
    stack.auditor.assert_clean()


def test_a_wake_up_pending_at_the_crash_is_inert():
    # The copy lands at 1 ms and pushes the server's wake-up; a crash and
    # restart fire between that push and the wake-up, at the same instant.
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    woken = []

    def crash_and_restart():
        woken.append(server._running)
        driver.crash_now("s-1")
        driver.restart_now("s-1")

    # Pushed at 1 ms, before the delivery fires, so it runs right after it.
    stack.sim.call_at(1.0, lambda: stack.sim.call_in(0.0, crash_and_restart))
    first = stack.invoke("c-1", 1)
    stack.sim.run()
    assert woken == [True] and first.value.timed_out
    assert server.replies == 0 and server.app.requests_served == 0
    assert not server._running and server.queue_length == 0
    stack.auditor.assert_clean()


def test_restart_before_detection_serves_on_a_fresh_incarnation():
    stack = FaultStack()
    server = stack.add_server("s-1", service_time=Constant(10.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    driver = stack.faults
    stack.sim.run(until=5.0)  # let the server go idle
    assert not server._running
    old_incarnation = server._incarnation
    # Crash and restart before the failure detector even notices (the
    # member never leaves the view): the fresh incarnation must serve a
    # new request exactly once.
    driver.crash_now("s-1")
    driver.restart_now("s-1")
    stack.sim.run(until=10.0)
    assert server._incarnation == old_incarnation + 1
    assert not server._running and not server.crashed
    event = stack.invoke("c-1", 0)
    stack.sim.run()
    assert not event.value.timed_out
    assert server.replies == 1 and server.app.requests_served == 1
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
