"""Shape tests for ablations A12-A14 (reduced sweeps)."""

import pytest

from repro.experiments import (
    MODULES,
    adaptation_timeline,
    colocation,
    load,
    retransmission,
)
from repro.experiments.registry import Command, Experiment, run


class TestColocationShape:
    @pytest.fixture(scope="class")
    def results(self):
        result = run(
            colocation.EXPERIMENT,
            grid=colocation.grid(num_requests=25),
            seeds=(0,),
        )
        return {row["policy"]: row for row in result.rows}

    def test_dynamic_avoids_noisy_hosts(self, results):
        assert (
            results["dynamic (paper)"]["noisy_host_share"]
            < results["random-2 (load-blind)"]["noisy_host_share"]
        )

    def test_dynamic_meets_budget(self, results):
        assert results["dynamic (paper)"]["failure_probability"] <= 0.1


class TestRetransmissionShape:
    @pytest.fixture(scope="class")
    def cells(self):
        result = run(
            retransmission.EXPERIMENT,
            grid=retransmission.grid(deadlines_ms=(140.0,), num_requests=25),
            seeds=(0,),
        )
        return {(row["strategy"], row["deadline_ms"]): row for row in result.rows}

    def test_retry_worse_at_tight_deadline(self, cells):
        dynamic = cells[("dynamic (paper)", 140.0)]
        retry = cells[("retransmit (related work)", 140.0)]
        assert retry["failure_probability"] >= dynamic["failure_probability"]

    def test_retry_sends_fewer_messages(self, cells):
        dynamic = cells[("dynamic (paper)", 140.0)]
        retry = cells[("retransmit (related work)", 140.0)]
        assert retry["messages_per_request"] < dynamic["messages_per_request"]


class TestAdaptationTimelineShape:
    @pytest.fixture(scope="class")
    def buckets(self):
        return run(adaptation_timeline.EXPERIMENT).rows

    def test_dynamic_masks_crash_window(self, buckets):
        crash = [
            b for b in buckets
            if b["policy"] == "dynamic (paper)" and b["start_ms"] == 10_000.0
        ][0]
        assert crash["failures"] == 0
        assert crash["timeouts"] == 0

    def test_single_fastest_suffers_in_crash_window(self, buckets):
        crash = [
            b for b in buckets
            if b["policy"] == "single-fastest" and b["start_ms"] == 10_000.0
        ][0]
        assert crash["failures"] + crash["timeouts"] >= 1

    def test_timeline_covers_horizon(self, buckets):
        dynamic = [b for b in buckets if b["policy"] == "dynamic (paper)"]
        assert dynamic[0]["start_ms"] == 0.0
        assert dynamic[-1]["end_ms"] == 30_000.0
        assert sum(b["requests"] for b in dynamic) > 0


class TestRunAllWiring:
    def test_every_entry_is_runnable(self):
        for key in MODULES:
            entry = load(key)
            assert entry.key == key
            if isinstance(entry, Command):
                assert callable(entry.main), key
            else:
                assert isinstance(entry, Experiment), key
                assert entry.grid and entry.seeds, key
                assert entry.quick_grid and entry.quick_seeds, key

    def test_quick_flag_parses(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["min_response", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Minimum response time" in out
        # The quick grid, not the full one: 50 requests, not 100.
        assert "\n50 " in out
