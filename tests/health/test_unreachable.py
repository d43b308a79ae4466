"""The ``unreachable`` fast path of the health state machine (ISSUE 9).

A partitioned replica is *silent* — every addressed request is an
omission and its probes expire — while a grey or overloaded replica
still makes contact (late replies, probe answers).  With
``unreachable_after`` set, an unbroken reply-loss streak quarantines
directly, skipping the SUSPECTED ladder; any contact resets the streak,
so only true silence takes the shortcut.
"""

import pytest

from repro.health import HealthConfig, HealthMonitor, HealthState


def make_monitor(**overrides) -> HealthMonitor:
    # The threshold is deliberately below the ladder's three faults
    # (SUSPECT_AFTER + QUARANTINE_AFTER): anything that quarantines on two
    # faults below did so via the unreachable fast path, not the ordinary
    # suspicion ladder.
    defaults = dict(backoff_initial_ms=100.0, unreachable_after=2)
    defaults.update(overrides)
    monitor = HealthMonitor(HealthConfig(**defaults))
    monitor.sync_members(["r-1", "r-2"], now_ms=0.0)
    return monitor


class TestConfig:
    def test_rejects_a_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="unreachable_after"):
            HealthConfig(unreachable_after=0)

    def test_default_is_disabled(self):
        assert HealthConfig().unreachable_after is None


class TestFastPath:
    def test_omission_streak_quarantines_before_the_ladder(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0, kind="omission")
        assert monitor.state("r-1") is HealthState.HEALTHY
        monitor.record_fault("r-1", 20.0, kind="omission")
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert monitor.events[-1].reason == "unreachable"
        # Two faults, and straight from HEALTHY: the ladder alone could not
        # have quarantined yet — this really was the fast path.
        assert [e.new_state for e in monitor.events] == [HealthState.QUARANTINED]
        assert monitor.record_for("r-1").consecutive_faults == 2

    def test_probe_failures_count_toward_the_streak(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0, kind="omission")
        monitor.record_fault("r-1", 20.0, kind="probe-failure")
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert monitor.events[-1].reason == "unreachable"

    def test_disabled_threshold_keeps_the_legacy_ladder(self):
        monitor = make_monitor(unreachable_after=None)
        for t in range(8):
            monitor.record_fault("r-1", float(t), kind="omission")
        # Quarantined eventually — but only through SUSPECTED, and never
        # with the fast-path reason.
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert all(e.reason != "unreachable" for e in monitor.events)


class TestContactResetsTheStreak:
    def test_timing_faults_never_accumulate_silence(self):
        # A late reply is still contact: the replica is slow, not gone.
        monitor = make_monitor()
        for t in range(4):
            monitor.record_fault("r-1", float(t), kind="timing")
        assert monitor.record_for("r-1").consecutive_omissions == 0
        assert all(e.reason != "unreachable" for e in monitor.events)

    def test_a_late_reply_interrupts_the_streak(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0, kind="omission")
        monitor.record_fault("r-1", 20.0, kind="timing")  # contact!
        monitor.record_fault("r-1", 30.0, kind="omission")
        # Three faults, but never two *consecutive* omissions: the fast
        # path must not fire (the ladder quarantines on its own terms).
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert [e.reason for e in monitor.events] == ["timing", "omission"]

    def test_a_grey_replica_answering_probes_is_never_unreachable(self):
        # The grey-failure signature: data omissions pile up while the
        # (exempted) probes keep getting answered.  The ladder may act on
        # the faults; the fast path never does.
        monitor = make_monitor()
        for t in range(10):
            monitor.record_fault("r-1", float(2 * t), kind="omission")
            monitor.record_probe_success("r-1", float(2 * t) + 1.0)
        assert all(e.reason != "unreachable" for e in monitor.events)
        assert monitor.record_for("r-1").consecutive_omissions == 0

    def test_a_timely_reply_resets_the_streak(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0, kind="omission")
        monitor.record_success("r-1", 20.0)
        monitor.record_fault("r-1", 30.0, kind="omission")
        assert monitor.state("r-1") is HealthState.HEALTHY


class TestReadmission:
    def test_unreachable_quarantine_recovers_through_probation(self):
        # The heal path: once the partition lifts, a probe answer moves
        # the replica into PROBATION and successes restore full trust —
        # identical to any other quarantine, so re-admission probing
        # needs no special casing for partitions.
        monitor = make_monitor()
        for t in (10.0, 20.0):
            monitor.record_fault("r-1", t, kind="omission")
        assert monitor.is_quarantined("r-1")
        monitor.record_probe_success("r-1", 100.0)
        assert monitor.state("r-1") is HealthState.PROBATION
        monitor.record_success("r-1", 110.0)
        monitor.record_success("r-1", 120.0)
        assert monitor.state("r-1") is HealthState.HEALTHY
