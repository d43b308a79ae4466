"""A18 acceptance: the clock-fault ablation's qualitative contract.

Reduced sweep (one scenario seed) of the real harness, asserting the
ISSUE 10 acceptance shape: the skew-tolerant stack holds the in-window
timely floor and quarantines the clock-faulty replica, the same-clock
discipline alone degrades but avoids the collapse, and the naive
absolute-timestamp baseline collapses under the open-loop load.
"""

import pytest

from repro.experiments import clock_faults
from repro.experiments.registry import run
from repro.health import HealthState


@pytest.fixture(scope="module")
def points():
    result = run(clock_faults.EXPERIMENT, seeds=(0,))
    return {row["variant"]: row for row in result.rows}


class TestA18Shape:
    def test_tolerant_holds_the_window_floor(self, points):
        assert points["tolerant"]["window_timely_fraction"] >= 0.90

    def test_naive_collapses(self, points):
        # The funnel: zeroed duration reports + future-stamp-clamped
        # gateway delays keep the frozen replica looking instant, so the
        # open-loop load piles onto its unbounded real queue.
        assert points["naive"]["window_timely_fraction"] < 0.5

    def test_disciplines_order_strictly(self, points):
        assert (
            points["naive"]["window_timely_fraction"]
            < points["same-clock"]["window_timely_fraction"]
            < points["tolerant"]["window_timely_fraction"]
        )

    def test_only_the_tolerant_variant_quarantines(self, points):
        assert points["tolerant"]["clock_quarantines"] >= 1
        assert points["naive"]["clock_quarantines"] == 0
        assert points["same-clock"]["clock_quarantines"] == 0

    def test_every_variant_rejects_some_reports(self, points):
        # naive's rejections are its outlier discards; the same-clock
        # variants' are coherence rejections.  All non-zero: the fault
        # windows are actually observed by every discipline.
        for p in points.values():
            assert p["clock_rejections"] > 0


class TestA18Determinism:
    def test_run_one_is_bit_identical(self):
        params = {"variant": "tolerant", "num_requests": 900}
        assert clock_faults.point(params, 0, 0) == clock_faults.point(params, 0, 0)

    def test_parallel_sweep_matches_serial(self):
        serial = run(clock_faults.EXPERIMENT, seeds=(0,))
        fanned = run(clock_faults.EXPERIMENT, seeds=(0,), workers=2)
        assert fanned.rows == serial.rows
        assert fanned.digest == serial.digest


class TestA18QuarantineTargets:
    def test_clock_quarantines_name_only_clock_faulted_replicas(self):
        # s-1 (step + freeze) must be quarantined with the clock reason;
        # the drifting replicas (±500 ppm, inside the coherence slack)
        # must never be.  s-4's 200 ms step may or may not accumulate a
        # streak — it is allowed either way, being genuinely faulted.
        stack = clock_faults.build_stack(0, "tolerant")
        clock_faults.drive(stack, 900)
        client = stack.clients["client-1"]
        culprits = {
            e.replica
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
            and e.reason == "clock_fault"
        }
        assert "s-1" in culprits
        assert culprits <= {"s-1", "s-4"}
