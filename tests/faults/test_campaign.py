"""The chaos-campaign engine (ISSUE 9 tentpole, experiment A17).

Four contracts:

* **seed discipline** — every scenario (schedule, deployment, wire
  draws) is a pure function of ``(base_seed, index)``, so outcomes are
  deterministic and the campaign digest is bit-identical for any worker
  count;
* **auditing** — a campaign over composed randomized schedules checks
  lifecycle invariants plus QoS floors, and failures carry a one-line
  replay recipe;
* **minimization** — ``shrink_schedule`` is classic ddmin: the result
  still fails and is 1-minimal;
* **bug capture** — a deliberately seeded lifecycle bug (a request book
  that leaks its record on timeout) is caught by the campaign and
  shrunk to a handful of fault windows.
"""

from typing import Optional

import pytest

from repro.faultinject.campaign import (
    CLIENT_HOSTS,
    MAX_WINDOWS,
    REPLICA_HOSTS,
    CampaignConfig,
    draw_composed_schedule,
    flatten_schedule,
    rebuild_schedule,
    run_campaign,
    run_scenario,
    schedule_digest,
    shrink_schedule,
)
from repro.faultinject.schedule import (
    FAMILIES,
    DelayRule,
    DropRule,
    FaultSchedule,
    PartitionFault,
)
from repro.engine import EvidenceAdmission, RequestBook
from repro.experiments import chaos_campaign
from repro.gateway.handlers.timing_fault import TimingFaultClientHandler

#: Small-but-composed campaign used across the tests (seconds, not
#: minutes; the full 200-schedule campaign is experiment A17).
SMALL = CampaignConfig(schedules=8, base_seed=0)

#: SMALL with the opt-in clock family enabled.  The default stays 0 so
#: historic campaign digests are untouched; composing clock windows into
#: the mix is ISSUE 10's chaos acceptance surface.
CLOCKED = CampaignConfig(schedules=8, base_seed=0, max_clock_windows=2)

#: Computed at the commit before the fault plane was merged and the
#: schedule generator became a table: both are held to bit-equality
#: here, not only by the 200-schedule A17 run.
SMALL_DIGEST = "f424ab0b8066fc3ea9b0809dee80f2dbc8a2a1ecc34b443c852574bf1f761916"
CLOCKED_DIGEST = "ccd5e69aec77deffe72abfb7558f6c8d4dd643c19051eeedf6dcb1b67cc8826a"
SMALL_SCHEDULE_DIGESTS = [
    "195ffbd7222142c4136cf49a903f528bcd61b6f2bc030576a5cfa223507e66bc",
    "23382e069da0fc55b2ad0a8ec0b9a87ec159e78fdcb678f6b77e212c5b14bf22",
    "cdb58106449f2758e4bd0cea0aee19a5a92c64c142ef87bf80ef6db9826a6557",
    "5a0c37fddf0cadb65adf317211deebc7a190ef92517d05321995b5092c6d0818",
    "e6349014d368586b325f1f894c6b8f8bb71463bc3306fee3ed081b8e5a12380f",
    "761514acadca8919e760d088af1477432ebbfc52de3ce3bebd90adfac33b9d02",
    "060ecc01b55b7b31d6137c2acbc9cf1280db9a4482c5b985a94e6e94e4434505",
    "9bb4eb1094dbdae98aaac27dff09fc25467a31fd132c5a007195259a81315620",
]


class _LeakyBook(RequestBook):
    """Deliberately buggy book: a record with a silent replica is never dropped.

    ``forget`` hands the record back (so the timeout still completes the
    request) but leaves it in the book whenever a replica it expected
    never answered — i.e. on every response timeout (a replica addressed
    under a partition, crash or drop window never replies).  Clean
    scenarios never trigger it — every expected reply arrived, the record
    is dropped normally — which is exactly what makes it a good seeded
    bug: only the campaign's fault schedules expose it, and only via the
    auditor's leak invariant.
    """

    def forget(self, msg_id):
        record = self.pending.get(msg_id)
        if record is not None and not record.expected <= record.replied:
            return record  # the bug: handed out, never removed
        return super().forget(msg_id)


class LeakyTimeoutClient(TimingFaultClientHandler):
    """Seeded lifecycle bug: substitutes the leaky request book."""

    book_cls = _LeakyBook


class _StampTrustingAdmission(EvidenceAdmission):
    """Deliberately buggy admission: it trusts replica send timestamps.

    Every report's ``sent_at_ms`` — an absolute reading of the *replica's*
    clock — ratchets a freshness watermark, which the client then compares
    with its own clock (see :class:`ClockTrustingClient`).
    """

    watermark_ms = 0.0

    def admit(self, perf):
        self.watermark_ms = max(self.watermark_ms, perf.sent_at_ms)
        return super().admit(perf)


class _PatientBook(RequestBook):
    """Keeps every record while "a fresher reply is still in flight"."""

    fresher_reply_due = staticmethod(lambda: False)

    def forget(self, msg_id):
        if self.fresher_reply_due():
            return None  # the bug: the record is neither dropped nor expired
        return super().forget(msg_id)


class ClockTrustingClient(TimingFaultClientHandler):
    """Seeded clock-trust bug, built from two substituted owners.

    A request record is only forgotten once the local clock has passed
    the admission's replica-stamped watermark.  Pristine replicas always
    stamp in the past, so clean scenarios never trigger it; one
    forward-stepped or positively-skewed replica pushes the watermark
    ahead of the local clock and every record dropped in that interval
    leaks — the cross-clock trust bug the clock plane's auditor
    invariants catch.
    """

    book_cls = _PatientBook
    evidence_cls = _StampTrustingAdmission

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        evidence, clock = self.engine.evidence, self.clock
        self.engine.book.fresher_reply_due = (
            lambda: clock.now < evidence.watermark_ms
        )


class TestCampaignConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="schedules"):
            CampaignConfig(schedules=0)
        # The deployment's shape is a constant of the campaign, not a
        # knob: what used to be validated can no longer be said.
        for removed in ("replicas", "clients", "horizon_ms"):
            with pytest.raises(TypeError, match=removed):
                CampaignConfig(**{removed: 1})

    def test_deployment_host_names(self):
        assert REPLICA_HOSTS == ("s-1", "s-2", "s-3", "s-4", "s-5")
        assert CLIENT_HOSTS == ("client-1", "client-2")

    def test_scenario_seeds_differ_per_index_and_purpose(self):
        cfg = SMALL
        seeds = {
            cfg.scenario_seed(0), cfg.scenario_seed(1),
            cfg.wire_seed(0), cfg.wire_seed(1),
            cfg.schedule_seed(0), cfg.schedule_seed(1),
        }
        assert len(seeds) == 6

    def test_replay_line_is_the_cli_recipe(self):
        line = CampaignConfig(base_seed=9).replay_line(4, "abcdef0123456789")
        assert line == (
            "python -m repro.experiments.chaos_campaign "
            "--replay 9:4:abcdef012345"
        )

    def test_replay_line_carries_the_clock_knob(self):
        # A non-default schedule knob must ride along in the recipe or
        # the replay redraws a different schedule and dies on the digest
        # check.  The default-0 line above stays byte-identical.
        line = CLOCKED.replay_line(4, "abcdef0123456789")
        assert line == (
            "python -m repro.experiments.chaos_campaign "
            "--replay 0:4:abcdef012345 --clock-windows 2"
        )


class TestComposedSchedules:
    def test_drawing_is_deterministic(self):
        assert draw_composed_schedule(SMALL, 3) == draw_composed_schedule(
            SMALL, 3
        )

    def test_indices_draw_distinct_schedules(self):
        digests = [
            schedule_digest(draw_composed_schedule(SMALL, i))
            for i in range(8)
        ]
        assert len(set(digests)) == 8
        assert digests == SMALL_SCHEDULE_DIGESTS

    @pytest.mark.parametrize("index", range(8))
    def test_family_counts_respect_the_config_bounds(self, index):
        schedule = draw_composed_schedule(SMALL, index)
        # MAX_WINDOWS lists the families in FaultSchedule order; the
        # clock family's cap is the config's (0 for SMALL).
        caps = [*MAX_WINDOWS.values(), SMALL.max_clock_windows]
        assert len(caps) == len(FAMILIES)
        for family, cap in zip(FAMILIES, caps):
            assert len(getattr(schedule, family)) <= cap, family

    def test_some_scenario_draws_a_partition(self):
        # The composed mix must actually exercise the new family.
        assert any(
            draw_composed_schedule(SMALL, i).partitions for i in range(8)
        )

    def test_some_scenario_draws_a_clock_fault(self):
        assert any(
            draw_composed_schedule(CLOCKED, i).clocks for i in range(8)
        )

    def test_clock_family_is_opt_in_and_perturbs_nothing(self):
        # max_clock_windows defaults to 0 (schedule digests are frozen
        # history), and enabling it must leave every other family of the
        # same scenario byte-identical — the clock count is the LAST mix
        # draw and the windows come from their own named substreams.
        for index in range(4):
            plain = draw_composed_schedule(SMALL, index)
            clocked = draw_composed_schedule(CLOCKED, index)
            assert plain.clocks == ()
            for family in (
                "drops",
                "delays",
                "duplicates",
                "crashes",
                "churn",
                "degradations",
                "overloads",
                "partitions",
            ):
                assert getattr(clocked, family) == getattr(plain, family)

    def test_flatten_rebuild_round_trips_clock_windows(self):
        schedule = next(
            draw_composed_schedule(CLOCKED, i)
            for i in range(8)
            if draw_composed_schedule(CLOCKED, i).clocks
        )
        assert rebuild_schedule(flatten_schedule(schedule)) == schedule

    @pytest.mark.parametrize("index", range(4))
    def test_flatten_rebuild_round_trip(self, index):
        schedule = draw_composed_schedule(SMALL, index)
        assert rebuild_schedule(flatten_schedule(schedule)) == schedule


class TestScenarioRuns:
    def test_scenario_is_deterministic(self):
        assert run_scenario(SMALL, 5) == run_scenario(SMALL, 5)

    def test_outcome_carries_the_replay_recipe(self):
        outcome = run_scenario(SMALL, 2)
        assert outcome.replay.startswith(
            "python -m repro.experiments.chaos_campaign --replay 0:2:"
        )
        assert outcome.digest.startswith(outcome.replay.rsplit(":", 1)[-1])

    def test_schedule_override_is_the_shrinker_entry_point(self):
        outcome = run_scenario(SMALL, 0, schedule=FaultSchedule())
        assert outcome.digest == schedule_digest(FaultSchedule())
        assert not outcome.failed
        assert outcome.replies == outcome.submitted


class TestCampaign:
    def test_small_campaign_is_clean_and_digest_stable(self):
        one = run_campaign(SMALL, workers=1)
        assert one.clean
        assert one.digest == SMALL_DIGEST
        assert len(one.outcomes) == SMALL.schedules
        assert [o.index for o in one.outcomes] == list(range(SMALL.schedules))
        again = run_campaign(SMALL, workers=1)
        assert again.digest == one.digest

    def test_digest_is_worker_count_invariant(self):
        # The acceptance contract: 1-vs-N worker bit-identical merge.
        serial = run_campaign(SMALL, workers=1)
        fanned = run_campaign(SMALL, workers=2)
        assert fanned.workers == 2
        assert fanned.digest == serial.digest
        assert fanned.outcomes == serial.outcomes

    def test_clocked_campaign_is_clean_and_worker_count_invariant(self):
        # ISSUE 10 acceptance: with clock windows composed into the mix
        # the campaign still merges 1-vs-N bit-identically, and the
        # skew-tolerant stack rides the clock faults without tripping a
        # single invariant or QoS floor.
        serial = run_campaign(CLOCKED, workers=1)
        assert serial.clean
        assert serial.digest == CLOCKED_DIGEST
        fanned = run_campaign(CLOCKED, workers=2)
        assert fanned.digest == serial.digest
        assert fanned.outcomes == serial.outcomes


def _failing_predicate(wanted):
    """A predicate failing iff every schedule in ``wanted`` is present."""

    def fails(candidate: FaultSchedule) -> bool:
        present = set(flatten_schedule(candidate))
        return wanted <= present

    return fails


class TestShrinker:
    DROP = DropRule(start_ms=10.0, end_ms=20.0)
    DELAY = DelayRule(start_ms=30.0, end_ms=40.0, extra_ms=5.0)
    CUT = PartitionFault(side=("s-1",), start_ms=50.0, end_ms=60.0)

    def _noise(self) -> FaultSchedule:
        return FaultSchedule(
            drops=(
                self.DROP,
                DropRule(start_ms=100.0, end_ms=110.0),
                DropRule(start_ms=200.0, end_ms=210.0),
            ),
            delays=(self.DELAY,),
            partitions=(
                self.CUT,
                PartitionFault(side=("s-2",), start_ms=70.0, end_ms=80.0),
            ),
        )

    def test_refuses_a_passing_schedule(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_schedule(self._noise(), lambda candidate: False)

    def test_shrinks_to_the_exact_failure_inducing_subset(self):
        wanted = {("drops", self.DROP), ("partitions", self.CUT)}
        minimal = shrink_schedule(self._noise(), _failing_predicate(wanted))
        assert set(flatten_schedule(minimal)) == wanted

    def test_result_is_one_minimal(self):
        wanted = {
            ("drops", self.DROP),
            ("delays", self.DELAY),
            ("partitions", self.CUT),
        }
        fails = _failing_predicate(wanted)
        minimal = shrink_schedule(self._noise(), fails)
        items = flatten_schedule(minimal)
        assert fails(minimal)
        for leave_out in range(len(items)):
            thinner = items[:leave_out] + items[leave_out + 1:]
            assert not fails(rebuild_schedule(thinner))


def _first_leaky_failure(cfg: CampaignConfig) -> Optional[int]:
    """Index of the first scenario the seeded bug fails, else ``None``."""
    for index in range(cfg.schedules):
        outcome = run_scenario(cfg, index, handler_cls=LeakyTimeoutClient)
        if any("leaked pending" in v for v in outcome.violations):
            return index
    return None


class TestSeededBugCapture:
    """End-to-end acceptance: the campaign catches and shrinks a real bug."""

    def test_campaign_catches_the_leak_and_shrinks_it(self):
        cfg = SMALL
        index = _first_leaky_failure(cfg)
        assert index is not None, "no scenario tripped the seeded bug"
        outcome = run_scenario(cfg, index, handler_cls=LeakyTimeoutClient)
        assert outcome.failed
        assert "--replay" in outcome.replay
        # The same schedules are clean under the correct client: the
        # failures are the bug's, not the campaign's.
        assert not run_scenario(cfg, index).failed

        def fails(candidate: FaultSchedule) -> bool:
            rerun = run_scenario(
                cfg, index, handler_cls=LeakyTimeoutClient, schedule=candidate
            )
            return any("leaked pending" in v for v in rerun.violations)

        drawn = draw_composed_schedule(cfg, index)
        minimal = shrink_schedule(drawn, fails)
        remaining = flatten_schedule(minimal)
        assert len(remaining) <= 3
        assert len(remaining) < len(flatten_schedule(drawn))
        assert fails(minimal)


def _first_clock_trust_failure(cfg: CampaignConfig) -> Optional[int]:
    """Index of the first scenario the clock-trust bug fails, else ``None``."""
    for index in range(cfg.schedules):
        outcome = run_scenario(cfg, index, handler_cls=ClockTrustingClient)
        if any("leaked pending" in v for v in outcome.violations):
            return index
    return None


class TestSeededClockBugCapture:
    """ISSUE 10 acceptance: a clock-trust bug is caught and ddmin-shrunk."""

    def test_campaign_catches_the_clock_bug_and_shrinks_it(self):
        cfg = CLOCKED
        index = _first_clock_trust_failure(cfg)
        assert index is not None, "no scenario tripped the seeded clock bug"
        outcome = run_scenario(cfg, index, handler_cls=ClockTrustingClient)
        assert outcome.failed
        assert "--replay" in outcome.replay
        assert "--clock-windows 2" in outcome.replay
        # The same schedule is clean under the correct client: the
        # failure is the bug's, not the campaign's.
        assert not run_scenario(cfg, index).failed

        def fails(candidate: FaultSchedule) -> bool:
            rerun = run_scenario(
                cfg,
                index,
                handler_cls=ClockTrustingClient,
                schedule=candidate,
            )
            return any("leaked pending" in v for v in rerun.violations)

        drawn = draw_composed_schedule(cfg, index)
        minimal = shrink_schedule(drawn, fails)
        remaining = flatten_schedule(minimal)
        assert len(remaining) <= 3
        assert fails(minimal)
        # The 1-minimal reproducer keeps a clock window: the trigger is
        # the clock fault, not the ambient network faults around it.
        assert minimal.clocks


class TestCli:
    def test_replay_of_a_clean_scenario_exits_zero(self, capsys):
        assert chaos_campaign.main(["--replay", "0:3"]) == 0
        out = capsys.readouterr().out
        assert "schedule #3" in out
        assert "nothing to shrink" in out

    def test_replay_digest_mismatch_exits_nonzero(self, capsys):
        assert chaos_campaign.main(["--replay", "0:3:000000000000"]) == 1
        assert "digest mismatch" in capsys.readouterr().out

    def test_campaign_cli_writes_the_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "campaign.json"
        code = chaos_campaign.main(
            ["--schedules", "4", "--json", str(artifact)]
        )
        assert code == 0
        import json

        payload = json.loads(artifact.read_text())
        assert len(payload["schedules"]) == 4
        assert payload["digest"]
        assert all(
            s["replay"].startswith("python -m") for s in payload["schedules"]
        )
