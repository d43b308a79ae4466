"""The clock-fault plane: HostClock, ClockFault windows, and their arming.

Covers the three layers of ISSUE 10's clock plane:

* :class:`HostClock` — the pristine fast path (bit-identical kernel
  reads until the first manipulation), the piecewise-linear mapping
  under step/drift/freeze/jitter, and ``resync`` restoring pristineness;
* :class:`ClockFault` as pure data — validation per kind, the drift
  ``rate`` property, window activity;
* the fault plane's clock family — scheduled engage/resync transitions
  on live clocks, idempotence, overlap composition, the seeded jitter
  stream, and counters — plus the drain-time auditor invariants the
  plane feeds (no negative response times, no future-stamped repository
  records).
"""

import numpy as np
import pytest

from repro.faultinject import ClockFault, FaultSchedule, SubmissionRecord
from repro.gateway.handlers.timing_fault import ReplyOutcome
from repro.sim.hostclock import ClockRegistry, HostClock
from repro.sim.kernel import Simulator
from repro.workload.ministack import MiniStack

from .conftest import FaultStack


class TestHostClock:
    def test_pristine_reads_are_bit_identical_to_kernel(self):
        sim = Simulator()
        clock = HostClock(sim, host="h")
        sim.call_at(123.456789, lambda: None)
        sim.run()
        assert clock.now == sim.now  # exact, no float residue
        assert not clock.faulted

    def test_pristine_elapsed_is_the_kernel_interval_exactly(self):
        sim = Simulator()
        clock = HostClock(sim)
        assert clock.elapsed_since(10.0, 3.3) == 3.3

    def test_step_jumps_the_local_reading(self):
        sim = Simulator()
        clock = HostClock(sim)
        sim.call_at(100.0, lambda: clock.step(50.0))
        sim.run()
        assert clock.now == pytest.approx(150.0)
        assert clock.faulted

    def test_drift_scales_elapsed_time(self):
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_rate(1.5)
        started = clock.now
        sim.call_at(100.0, lambda: None)
        sim.run()
        assert clock.now - started == pytest.approx(150.0)
        assert clock.elapsed_since(started, 100.0) == pytest.approx(150.0)

    def test_freeze_stops_the_clock(self):
        sim = Simulator()
        clock = HostClock(sim)
        sim.call_at(10.0, clock.freeze)
        sim.call_at(30.0, lambda: None)
        sim.run()
        assert clock.now == pytest.approx(10.0)  # frozen at the freeze instant

    def test_jitter_is_bounded_and_needs_an_rng(self):
        sim = Simulator()
        clock = HostClock(sim)
        clock.set_jitter(2.0, np.random.default_rng(0))
        sim.call_at(100.0, lambda: None)
        sim.run()
        readings = [clock.now for _ in range(50)]
        assert all(98.0 <= r <= 102.0 for r in readings)
        assert len(set(readings)) > 1  # per-read noise, not a constant

    def test_resync_restores_pristine_identity(self):
        sim = Simulator()
        clock = HostClock(sim)
        clock.step(500.0)
        clock.set_rate(2.0)
        clock.resync()
        sim.call_at(77.7, lambda: None)
        sim.run()
        assert clock.now == sim.now  # exact again
        assert not clock.faulted
        assert clock.elapsed_since(0.0, 77.7) == 77.7

    def test_rate_must_be_non_negative(self):
        with pytest.raises(ValueError):
            HostClock(Simulator()).set_rate(-0.1)

    def test_registry_returns_one_clock_per_host(self):
        registry = ClockRegistry(Simulator())
        assert registry.clock("a") is registry.clock("a")
        assert registry.clock("a") is not registry.clock("b")
        assert "a" in registry and "b" in registry and len(registry) == 2


class TestClockFaultValidation:
    def test_needs_a_host_and_an_ordered_window(self):
        with pytest.raises(ValueError):
            ClockFault(host="", start_ms=0.0, end_ms=10.0, kind="freeze")
        with pytest.raises(ValueError):
            ClockFault(host="h", start_ms=10.0, end_ms=10.0, kind="freeze")
        with pytest.raises(ValueError):
            ClockFault(host="h", start_ms=-1.0, end_ms=10.0, kind="freeze")

    def test_kind_is_a_closed_set(self):
        with pytest.raises(ValueError):
            ClockFault(host="h", start_ms=0.0, end_ms=10.0, kind="warp")

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("skew", {}),
            ("drift", {}),
            ("step", {}),
            ("jitter", {"jitter_ms": 0.0}),
        ],
    )
    def test_each_kind_needs_its_magnitude(self, kind, kwargs):
        with pytest.raises(ValueError):
            ClockFault(host="h", start_ms=0.0, end_ms=10.0, kind=kind, **kwargs)

    def test_drift_rate_property(self):
        fault = ClockFault(
            host="h", start_ms=0.0, end_ms=10.0, kind="drift", drift_ppm=500.0
        )
        assert fault.rate == pytest.approx(1.0005)

    def test_active_window(self):
        fault = ClockFault(
            host="h", start_ms=10.0, end_ms=20.0, kind="freeze"
        )
        assert not fault.active(9.9)
        assert fault.active(10.0)
        assert fault.active(19.9)
        assert not fault.active(20.0)


def _stack(hosts=("h-1", "h-2"), wire_seed=0):
    """A plain-wire stack (clock faults need no fault-injecting wire)."""
    stack = MiniStack(wire_seed=wire_seed)
    for host in hosts:
        stack.add_server(host)
    return stack.sim, stack.faults, stack.clocks.clock(hosts[0])


class TestClockDriver:
    def test_window_engages_then_resyncs(self):
        sim, plane, clock = _stack()
        fault = ClockFault(
            host="h-1", start_ms=100.0, end_ms=200.0, kind="step",
            step_ms=50.0,
        )
        plane.apply(FaultSchedule(clocks=(fault,)))
        readings = {}
        sim.call_at(150.0, lambda: readings.update(mid=clock.now))
        sim.call_at(250.0, lambda: readings.update(after=clock.now))
        sim.run()
        assert readings["mid"] == pytest.approx(200.0)  # stepped +50
        assert readings["after"] == 250.0  # resynced, pristine again
        assert plane.engagements == 1
        assert plane.resyncs == 1

    def test_engage_is_idempotent(self):
        _sim, plane, clock = _stack()
        fault = ClockFault(
            host="h-1", start_ms=0.0, end_ms=10.0, kind="step", step_ms=5.0
        )
        plane.engage_now(fault)
        plane.engage_now(fault)
        assert plane.engagements == 1
        assert clock.now == pytest.approx(5.0)  # stepped once

    def test_unknown_host_is_ignored(self):
        # It used to be, silently; one rule for the one plane now: a
        # fault naming a host the deployment does not have is rejected,
        # family and host named, before anything is armed.
        sim, plane, _clock = _stack()
        known = ClockFault(host="h-1", start_ms=0.0, end_ms=10.0, kind="freeze")
        ghost = ClockFault(
            host="elsewhere", start_ms=0.0, end_ms=10.0, kind="freeze"
        )
        with pytest.raises(ValueError, match="clocks.*'elsewhere'"):
            plane.apply(FaultSchedule(clocks=(known, ghost)))
        sim.run()
        assert plane.engagements == 0  # the known host's window was not armed
        assert len(plane.schedule) == 0

    def test_overlap_reengages_the_survivor_after_resync(self):
        # drift [0, 300) overlapping freeze [100, 200): when the freeze
        # window ends the clock is resynced and the still-active drift
        # re-engages, so the clock keeps drifting until 300.
        sim, plane, clock = _stack()
        drift = ClockFault(
            host="h-1", start_ms=0.0, end_ms=300.0, kind="drift",
            drift_ppm=100_000.0,  # 1.1x: visible over a 100ms span
        )
        freeze = ClockFault(
            host="h-1", start_ms=100.0, end_ms=200.0, kind="freeze"
        )
        plane.apply(FaultSchedule(clocks=(drift, freeze)))
        readings = {}
        sim.call_at(150.0, lambda: readings.update(frozen=clock.now))
        sim.call_at(250.0, lambda: readings.update(drifting=clock.now))
        sim.call_at(350.0, lambda: readings.update(after=clock.now))
        sim.run()
        frozen = readings["frozen"]
        assert clock.faulted is False  # drained run ends pristine
        # While frozen the reading holds; after the freeze resync the
        # survivor re-engages from kernel time, so the clock drifts
        # +10% over [200, 250] and is pristine after 300.
        assert frozen == pytest.approx(110.0)  # drifted to 110 by t=100
        assert readings["drifting"] == pytest.approx(255.0)
        assert readings["after"] == 350.0
        assert plane.resyncs == 2

    def test_jitter_stream_is_rooted_in_the_wire_seed(self):
        # Regression: a driver built without streams fell back to
        # RNGManager(0), so every deployment armed that way drew the same
        # jitter whatever its seed.
        def jittered_readings(wire_seed):
            sim, plane, clock = _stack(wire_seed=wire_seed)
            plane.apply(
                FaultSchedule(
                    clocks=(
                        ClockFault(
                            host="h-1", start_ms=10.0, end_ms=100.0,
                            kind="jitter", jitter_ms=5.0,
                        ),
                    )
                )
            )
            readings = []
            for at in (20.0, 40.0, 60.0, 80.0):
                sim.call_at(at, lambda: readings.append(clock.now))
            sim.run()
            return readings

        assert jittered_readings(3) == jittered_readings(3)
        assert jittered_readings(3) != jittered_readings(4)
        assert jittered_readings(3) != [20.0, 40.0, 60.0, 80.0]


class TestAuditorClockInvariants:
    def test_negative_response_time_is_a_violation(self):
        stack = FaultStack()
        event = stack.sim.event()
        outcome = ReplyOutcome(
            value=None,
            response_time_ms=-4.2,  # a raw cross-clock subtraction
            timely=True,
            timed_out=False,
            replica="r1",
            redundancy=1,
            request_id=1,
            t0_ms=4.2,
            t1_ms=4.2,
            t4_ms=0.0,
            perf=None,
        )
        stack.auditor.records.append(
            SubmissionRecord(
                client="c",
                method="process",
                submitted_at_ms=0.0,
                event=event,
                outcomes=[outcome],
            )
        )
        event.succeed(outcome)
        stack.sim.run()
        report = stack.auditor.audit()
        assert any("negative response time" in v for v in report.violations)

    def test_future_stamped_record_is_a_leak(self):
        stack = FaultStack()
        stack.add_server("s-1")
        client = stack.add_client("c-1")
        stack.invoke("c-1")
        stack.sim.run()
        # Stamp s-1's record beyond the client clock's current reading —
        # what admitting a replica's absolute timestamp would do.
        client.repository.record_performance(
            "s-1", 1.0, 0.0, 0, client.clock.now + 10_000.0
        )
        leaks = client.lifecycle_leaks()
        assert leaks["future_stamped_records"] == ["s-1"]
        report = stack.auditor.audit()
        assert any("future_stamped_records" in v for v in report.violations)
