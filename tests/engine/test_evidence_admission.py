"""EvidenceAdmission truth table: what a replica may report and be believed.

Negative durations are rejected, never clamped; inflation is judged
against the round trip plus slack; deflation only with clock sanity on
*and* a trusted (probed) round trip to compare against.
"""

import math

import pytest

from repro.engine import EvidenceAdmission
from repro.health import HealthConfig
from repro.health.state import CLOCK_SLACK_MS

from .fakes import FakePort, make_engine, perf

SANE = HealthConfig(clock_anomaly_after=3)  # slack 1 ms, deflation factor 6


class TestAdmit:
    @pytest.mark.parametrize(
        "ts, tq, admitted",
        [
            (5.0, 1.0, True),
            (0.0, 0.0, True),  # zero is a measurement, not a lie
            (-0.001, 1.0, False),
            (5.0, -3.0, False),
            (-1.0, -1.0, False),
        ],
    )
    def test_negative_durations_are_rejected_not_clamped(self, ts, tq, admitted):
        sample = perf("s-1", ts=ts, tq=tq)
        result = EvidenceAdmission().admit(sample)
        assert (result is sample) if admitted else (result is None)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["ts", "tq"])
    def test_non_finite_durations_are_rejected_like_negative_ones(self, field, bad):
        sample = perf("s-1", **{field: bad})
        assert EvidenceAdmission().admit(sample) is None

    def test_a_non_finite_report_is_a_clock_anomaly_not_an_exception(self):
        engine = make_engine(FakePort())
        repo = engine.models.repository_for(engine.models.classify(None))
        version = repo.version
        assert engine.on_perf(perf("s-1", tq=math.nan)) is False
        assert engine.on_perf(perf("s-1", ts=math.inf)) is False
        assert engine.clock_rejections == 2
        assert repo.version == version


class TestInflation:
    @pytest.mark.parametrize(
        "reported, round_trip, coherent",
        [
            (10.0, 12.0, True),
            (12.0, 12.0, True),
            (12.9, 12.0, True),  # inside the 1 ms slack
            (13.1, 12.0, False),  # claims more time than the trip took
            (500.0, 12.0, False),
        ],
    )
    def test_reported_time_cannot_exceed_the_round_trip(
        self, reported, round_trip, coherent
    ):
        sample = perf("s-1", ts=reported, tq=0.0)
        for admission in (EvidenceAdmission(), EvidenceAdmission(SANE)):
            assert admission.coherent(sample, 100.0, 100.0 + round_trip) is coherent

    def test_slack_is_the_health_configs(self):
        # One constant of the health module, whatever the config says.
        for config in (None, HealthConfig(), SANE):
            admission = EvidenceAdmission(config)
            edge = 12.0 + CLOCK_SLACK_MS
            assert admission.coherent(perf("s-1", ts=edge - 0.01, tq=0.0), 0.0, 12.0)
            assert not admission.coherent(perf("s-1", ts=edge + 0.01, tq=0.0), 0.0, 12.0)


class TestDeflation:
    #: A replica claims ~0 ms of server time on a 60 ms round trip; its
    #: probed round trip is 2 ms, so at most 6 × 2 + 1 = 13 ms is plausible.
    SUSPECT = perf("s-1", ts=0.2, tq=0.1)

    @pytest.mark.parametrize(
        "config, trusted_rtt, coherent",
        [
            (None, None, True),  # clock sanity off
            (None, 2.0, True),  # ...even with a trusted round trip
            (SANE, None, True),  # on, but nothing trusted to compare with
            (SANE, 2.0, False),  # on *and* trusted: under-reporting
            (SANE, 20.0, True),  # a genuinely slow path explains the trip
        ],
    )
    def test_needs_clock_sanity_and_a_trusted_round_trip(
        self, config, trusted_rtt, coherent
    ):
        admission = EvidenceAdmission(config)
        if trusted_rtt is not None:
            admission.trust_round_trip("s-1", trusted_rtt)
        assert admission.coherent(self.SUSPECT, 0.0, 60.0) is coherent

    def test_only_near_zero_reports_are_deflation_suspects(self):
        admission = EvidenceAdmission(SANE)
        admission.trust_round_trip("s-1", 2.0)
        assert admission.coherent(perf("s-1", ts=1.5, tq=0.0), 0.0, 60.0)

    def test_sub_millisecond_probe_round_trips_are_floored_at_one(self):
        admission = EvidenceAdmission(SANE)
        admission.trust_round_trip("s-1", 0.01)
        assert admission.coherent(self.SUSPECT, 0.0, 7.0)  # implied 6.7 ≤ 6 × 1 + 1
        assert not admission.coherent(self.SUSPECT, 0.0, 8.0)

    def test_trust_is_per_replica(self):
        admission = EvidenceAdmission(SANE)
        admission.trust_round_trip("s-2", 2.0)
        assert admission.coherent(self.SUSPECT, 0.0, 60.0)


def test_gateway_delay_uses_durations_never_absolute_stamps():
    sample = perf("s-1", ts=6.0, tq=2.0, enqueued_at_ms=9e6, sent_at_ms=9e6)
    assert EvidenceAdmission().gateway_delay(sample, 10.0, 25.0) == 7.0
