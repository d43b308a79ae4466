"""Unit tests for the per-replica health state machine (no simulator)."""

import dataclasses

import pytest

from repro.health import HealthConfig, HealthEvent, HealthMonitor, HealthState


def make_monitor(**overrides) -> HealthMonitor:
    defaults = dict(backoff_initial_ms=100.0)  # backoff cap 8 x 100 ms
    defaults.update(overrides)
    monitor = HealthMonitor(HealthConfig(**defaults))
    monitor.sync_members(["r-1", "r-2"], now_ms=0.0)
    return monitor


class TestSuspicionAndQuarantine:
    def test_starts_healthy_with_full_trust(self):
        monitor = make_monitor()
        assert monitor.state("r-1") is HealthState.HEALTHY
        assert monitor.discount("r-1") == 1.0
        assert not monitor.is_quarantined("r-1")

    def test_untracked_replica_gets_full_trust(self):
        monitor = make_monitor()
        assert monitor.state("ghost") is None
        assert monitor.discount("ghost") == 1.0
        assert not monitor.is_quarantined("ghost")

    def test_fault_streak_suspects_then_quarantines(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        assert monitor.state("r-1") is HealthState.HEALTHY
        monitor.record_fault("r-1", 20.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED
        assert monitor.discount("r-1") == pytest.approx(0.5)
        monitor.record_fault("r-1", 30.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert monitor.discount("r-1") == 0.0
        assert monitor.quarantined() == ["r-1"]

    def test_success_resets_the_fault_streak(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_success("r-1", 20.0)
        monitor.record_fault("r-1", 30.0)
        assert monitor.state("r-1") is HealthState.HEALTHY

    def test_successes_recover_a_suspected_replica(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_fault("r-1", 20.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED
        monitor.record_success("r-1", 30.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED
        monitor.record_success("r-1", 40.0)
        assert monitor.state("r-1") is HealthState.HEALTHY

    def test_a_suspected_replica_that_answered_once_needs_three_more_faults(self):
        # SUSPECT_AFTER + QUARANTINE_AFTER = 3 consecutive faults: one
        # success resets the streak without re-admitting the replica.
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_fault("r-1", 20.0)
        monitor.record_success("r-1", 30.0)
        monitor.record_fault("r-1", 40.0)
        monitor.record_fault("r-1", 50.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED
        monitor.record_fault("r-1", 60.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED

    def test_crash_declaration_quarantines_immediately(self):
        monitor = make_monitor()
        monitor.record_crash("r-2", 50.0)
        assert monitor.state("r-2") is HealthState.QUARANTINED
        assert monitor.events[-1].reason == "crash"


class TestProbeEvidence:
    def test_probe_success_does_not_reset_healthy_fault_streak(self):
        # Probes bypass the FIFO queue: an overloaded replica answers its
        # probes promptly while timing out client requests.  Probe
        # successes must not mask that.
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_probe_success("r-1", 15.0)
        monitor.record_fault("r-1", 20.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED

    def test_probe_failure_escalates_a_suspected_replica(self):
        # Once suspected, selection may stop routing to the replica, so
        # request evidence dries up; the verification probes must be able
        # to finish the job.
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_fault("r-1", 20.0)
        assert monitor.state("r-1") is HealthState.SUSPECTED
        monitor.record_probe_failure("r-1", 30.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED

    def test_probe_failure_on_healthy_replica_is_ignored(self):
        monitor = make_monitor()
        monitor.record_probe_failure("r-1", 10.0)
        assert monitor.state("r-1") is HealthState.HEALTHY
        assert monitor.record_for("r-1").consecutive_faults == 0

    def test_probe_success_enters_probation_then_healthy(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        assert monitor.state("r-1") is HealthState.QUARANTINED
        monitor.record_probe_success("r-1", 200.0)
        assert monitor.state("r-1") is HealthState.PROBATION
        assert monitor.discount("r-1") == pytest.approx(0.7)
        # PROBATION_AFTER is 2; the admitting probe already counted once.
        monitor.record_probe_success("r-1", 300.0)
        assert monitor.state("r-1") is HealthState.HEALTHY
        assert monitor.discount("r-1") == 1.0

    def test_timely_reply_while_quarantined_enters_probation(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        monitor.record_success("r-1", 40.0)
        assert monitor.state("r-1") is HealthState.PROBATION
        assert monitor.events[-1].reason == "reply-while-quarantined"

    def test_probation_fault_requarantines_with_escalated_backoff(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        first_backoff = monitor.record_for("r-1").backoff_ms
        assert first_backoff == pytest.approx(100.0)
        monitor.record_probe_success("r-1", 200.0)
        monitor.record_fault("r-1", 210.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert monitor.record_for("r-1").backoff_ms == pytest.approx(200.0)


class TestBackoffSchedule:
    def test_failed_probes_double_the_backoff_up_to_the_cap(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        record = monitor.record_for("r-1")
        assert record.backoff_ms == pytest.approx(100.0)
        expected = [200.0, 400.0, 800.0, 800.0]  # capped at 800
        for backoff in expected:
            monitor.record_probe_failure("r-1", 0.0)
            assert record.backoff_ms == pytest.approx(backoff)

    def test_due_probes_respect_the_quarantine_backoff(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        record = monitor.record_for("r-1")
        # Quarantined at 30 with backoff 100: due at 130, not before.
        assert monitor.due_probes(100.0) == []
        assert monitor.due_probes(130.0) == ["r-1"]
        monitor.note_probe_sent("r-1", 130.0)
        assert monitor.due_probes(131.0) == []
        assert record.next_probe_at_ms == pytest.approx(230.0)

    def test_suspected_replicas_are_probed_every_tick(self):
        monitor = make_monitor()
        monitor.record_fault("r-1", 10.0)
        monitor.record_fault("r-1", 20.0)
        assert monitor.due_probes(21.0) == ["r-1"]
        monitor.note_probe_sent("r-1", 21.0)  # no-op outside quarantine
        assert monitor.due_probes(22.0) == ["r-1"]


class TestMembershipAndEvents:
    def test_departed_replica_is_dropped_and_rejoins_fresh(self):
        monitor = make_monitor()
        for at in (10.0, 20.0, 30.0):
            monitor.record_fault("r-1", at)
        assert monitor.is_quarantined("r-1")
        monitor.sync_members(["r-2"], now_ms=40.0)
        assert monitor.state("r-1") is None
        monitor.sync_members(["r-1", "r-2"], now_ms=50.0)
        assert monitor.state("r-1") is HealthState.HEALTHY

    def test_listener_sees_every_transition_and_can_unsubscribe(self):
        seen = []
        monitor = HealthMonitor(
            HealthConfig(backoff_initial_ms=10.0), listener=seen.append
        )
        monitor.sync_members(["r-1"], now_ms=0.0)
        for at in (10.0, 20.0, 25.0):
            monitor.record_fault("r-1", at)
        assert [e.new_state for e in seen] == [
            HealthState.SUSPECTED,
            HealthState.QUARANTINED,
        ]
        assert seen == monitor.events
        unsubscribe = monitor.add_listener(seen.append)
        unsubscribe()
        monitor.record_probe_success("r-1", 30.0)
        assert len(seen) == 3  # only the original listener fired

    def test_evidence_for_untracked_replicas_is_ignored(self):
        monitor = make_monitor()
        monitor.record_fault("ghost", 10.0)
        monitor.record_success("ghost", 20.0)
        monitor.record_crash("ghost", 30.0)
        monitor.record_probe_failure("ghost", 40.0)
        assert [monitor.state(r) for r in ("r-1", "r-2", "ghost")] == [
            HealthState.HEALTHY, HealthState.HEALTHY, None,
        ]


class TestClockAnomalies:
    """The clock-sanity signal (ISSUE 10): anomaly streaks quarantine."""

    def test_disabled_by_default(self):
        monitor = make_monitor()  # clock_anomaly_after=None
        for at in (10.0, 20.0, 30.0, 40.0):
            monitor.record_clock_anomaly("r-1", at)
        assert monitor.state("r-1") is HealthState.HEALTHY

    def test_anomaly_streak_quarantines_with_clock_fault_reason(self):
        monitor = make_monitor(clock_anomaly_after=3)
        monitor.record_clock_anomaly("r-1", 10.0)
        monitor.record_clock_anomaly("r-1", 20.0)
        assert not monitor.is_quarantined("r-1")
        monitor.record_clock_anomaly("r-1", 30.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED
        assert monitor.events[-1].reason == "clock_fault"
        assert monitor.record_for("r-1").last_fault_kind == "clock"

    def test_coherent_sample_resets_the_anomaly_streak(self):
        monitor = make_monitor(clock_anomaly_after=3)
        monitor.record_clock_anomaly("r-1", 10.0)
        monitor.record_clock_anomaly("r-1", 20.0)
        monitor.record_coherent_sample("r-1")
        monitor.record_clock_anomaly("r-1", 30.0)
        monitor.record_clock_anomaly("r-1", 40.0)
        assert monitor.state("r-1") is HealthState.HEALTHY
        monitor.record_clock_anomaly("r-1", 50.0)
        assert monitor.state("r-1") is HealthState.QUARANTINED

    def test_probe_readmission_after_clock_quarantine(self):
        # A resynced clock stops producing anomalies; the normal
        # backoff-probe path then walks the replica back to HEALTHY.
        monitor = make_monitor(clock_anomaly_after=2)
        monitor.record_clock_anomaly("r-1", 10.0)
        monitor.record_clock_anomaly("r-1", 20.0)
        assert monitor.is_quarantined("r-1")
        monitor.record_probe_success("r-1", 200.0)
        assert monitor.state("r-1") is HealthState.PROBATION
        monitor.record_probe_success("r-1", 300.0)
        assert monitor.state("r-1") is HealthState.HEALTHY

    def test_anomalies_count_as_faults_in_the_totals(self):
        monitor = make_monitor(clock_anomaly_after=2)
        monitor.record_clock_anomaly("r-1", 10.0)
        record = monitor.record_for("r-1")
        assert record.clock_anomalies == 1
        assert record.faults_total == 1
        assert record.consecutive_successes == 0


    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(clock_anomaly_after=0)
        with pytest.raises(ValueError):
            HealthConfig(clock_deflation_factor=0.5)


class TestConfig:
    def test_defaults(self):
        config = HealthConfig()
        assert dataclasses.astuple(config) == (1000.0, 0.99, None, None, 6.0)
        assert config.backoff_max_ms == 8000.0

    @pytest.mark.parametrize(
        "field, value, accepted",
        [
            ("backoff_initial_ms", 0.0, False),
            ("backoff_initial_ms", 0.5, True),
            ("adaptive_timeout_quantile", 0.0, False),
            ("adaptive_timeout_quantile", 0.5, True),
            ("adaptive_timeout_quantile", 1.0, True),
            ("adaptive_timeout_quantile", 1.0 + 1e-9, False),
            ("adaptive_timeout_quantile", None, True),
            ("unreachable_after", 0, False),
            ("unreachable_after", 1, True),
            ("clock_anomaly_after", 0, False),
            ("clock_anomaly_after", 1, True),
            ("clock_deflation_factor", 1.0 - 1e-9, False),
            ("clock_deflation_factor", 1.0, True),
        ],
    )
    def test_each_bound_accepts_and_refuses(self, field, value, accepted):
        if accepted:
            assert getattr(HealthConfig(**{field: value}), field) == value
        else:
            with pytest.raises(ValueError, match=field):
                HealthConfig(**{field: value})

    def test_config_and_events_are_frozen(self):
        event = HealthEvent("r-1", HealthState.HEALTHY, HealthState.SUSPECTED, 1.0, "timing")
        for frozen, field in ((HealthConfig(), "backoff_initial_ms"), (event, "at_ms")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, field, 2.0)
