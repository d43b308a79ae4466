"""Scripted host crashes and recoveries, through the one fault plane.

Every case that used to run on the replica-side injector runs on
``MiniStack.faults`` (the deployment's ``FaultPlane``) with a
``CrashRestartFault`` as the schedule entry; the class names are kept so
the test ids stay stable.
"""

import pytest

from repro.faultinject import CrashRestartFault, FaultSchedule
from repro.workload.ministack import MiniStack


@pytest.fixture
def stack() -> MiniStack:
    stack = MiniStack()
    for host in ("server-1", "server-2"):
        stack.add_server(host)
    return stack


class TestCrashSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashRestartFault("h", crash_at_ms=-1.0)
        with pytest.raises(ValueError):
            CrashRestartFault("h", crash_at_ms=10.0, restart_at_ms=10.0)

    def test_recovery_optional(self):
        fault = CrashRestartFault("h", crash_at_ms=10.0)
        assert fault.restart_at_ms is None


class TestFaultInjector:
    def test_scheduled_crash_marks_host_down(self, stack):
        stack.schedule_crash("server-1", at_ms=50.0)
        stack.sim.run(until=40.0)
        assert stack.lan.is_up("server-1")
        stack.sim.run(until=60.0)
        assert not stack.lan.is_up("server-1")
        assert stack.faults.crashes_applied == 1

    def test_recovery_brings_host_back(self, stack):
        stack.schedule_crash("server-1", at_ms=10.0, recover_at_ms=30.0)
        stack.sim.run(until=20.0)
        assert not stack.lan.is_up("server-1")
        stack.sim.run(until=40.0)
        assert stack.lan.is_up("server-1")
        assert stack.faults.restarts_applied == 1

    def test_hooks_run_at_crash_and_recovery(self, stack):
        # The replica stops at the crash instant and is a fresh, running
        # incarnation at the recovery instant — not when the failure
        # detector gets round to noticing.
        server = stack.servers["server-1"]
        events = []
        crash, restart = server.crash, server.restart
        server.crash = lambda: (events.append(("crash", stack.sim.now)), crash())
        server.restart = lambda: (
            events.append(("recover", stack.sim.now)), restart()
        )
        stack.schedule_crash("server-1", at_ms=10.0, recover_at_ms=30.0)
        stack.sim.run(until=20.0)
        assert server.crashed
        stack.sim.run(until=50.0)
        assert not server.crashed
        assert events == [("crash", 10.0), ("recover", 30.0)]

    def test_crash_is_idempotent(self, stack):
        stack.faults.crash_now("server-1")
        stack.faults.crash_now("server-1")
        assert stack.faults.crashes_applied == 1

    def test_recover_without_crash_is_noop(self, stack):
        stack.faults.restart_now("server-1")
        assert stack.faults.restarts_applied == 0

    def test_unknown_host_rejected_at_schedule_time(self, stack):
        with pytest.raises(ValueError, match="crashes.*'ghost'"):
            stack.schedule_crash("ghost", at_ms=1.0)

    def test_schedule_all(self, stack):
        stack.faults.apply(
            FaultSchedule(
                crashes=(
                    CrashRestartFault("server-1", crash_at_ms=10.0),
                    CrashRestartFault("server-2", crash_at_ms=20.0),
                )
            )
        )
        stack.sim.run(until=30.0)
        assert stack.faults.crashes_applied == 2
