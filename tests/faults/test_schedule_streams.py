"""Seeding discipline of ``random_fault_schedule``.

Every fault window draws from its own named substream of the
:class:`~repro.rng.RNGManager`, so no family's windows can be perturbed
by another family's count — and every family's windows heal in time for
the drain-time audit.
"""

import pytest

from repro.faultinject.schedule import (
    _draw_clock_fault,
    _draw_partition,
    random_fault_schedule,
)
from repro.rng import RNGManager

REPLICAS = ["s-1", "s-2", "s-3"]
HORIZON_MS = 4000.0


def _streamed(seed, **kwargs):
    return random_fault_schedule(
        RNGManager(base_seed=seed), HORIZON_MS, REPLICAS, **kwargs
    )


class TestLegacyPathFrozen:
    """The guarantee the retired sequential generator gave by draw order."""

    def test_trailing_families_do_not_perturb_core_families(self):
        # Enabling degradations/overloads leaves the first five families
        # byte-identical.
        plain = _streamed(13)
        extended = _streamed(13, degradations=2, overload_windows=2)
        for family in ("drops", "delays", "duplicates", "crashes", "churn"):
            assert getattr(extended, family) == getattr(plain, family)


class TestStreamedPathIndependence:
    def test_deterministic_per_seed(self):
        assert repr(_streamed(7)) == repr(_streamed(7))
        assert repr(_streamed(7)) != repr(_streamed(8))

    def test_family_counts_are_independent(self):
        # Changing one family's window count must not re-randomize any
        # other family.
        base = _streamed(29, degradations=1, overload_windows=1)
        more_drops = _streamed(
            29, drop_windows=7, degradations=1, overload_windows=1
        )
        for family in (
            "delays",
            "duplicates",
            "crashes",
            "churn",
            "degradations",
            "overloads",
        ):
            assert getattr(more_drops, family) == getattr(base, family)
        assert more_drops.drops[:3] == base.drops

    def test_window_index_is_the_substream_key(self):
        # Window i of a family is the same rule whether the family draws
        # 2 or 5 windows — each (family, i) key owns its substream.
        two = _streamed(7, delay_windows=2)
        five = _streamed(7, delay_windows=5)
        assert five.delays[:2] == two.delays

    def test_matches_manual_substream_draws(self):
        # The documented key scheme, reproduced by hand: window 0 of the
        # crash family draws host-then-start from substream
        # ("faults.crashes", 0) of the same manager seed.
        g = RNGManager(base_seed=41).substream("faults.crashes", 0)
        expected_host = str(g.choice(REPLICAS))
        expected_start = g.uniform(0.0, HORIZON_MS * 0.8)
        schedule = _streamed(41)
        assert schedule.crashes[0].host == expected_host
        assert schedule.crashes[0].crash_at_ms == expected_start

    def test_all_families_present_when_requested(self):
        schedule = _streamed(3, degradations=2, overload_windows=2)
        assert len(schedule.drops) == 3
        assert len(schedule.delays) == 2
        assert len(schedule.duplicates) == 2
        assert len(schedule.crashes) == 2
        assert len(schedule.churn) == 2
        assert len(schedule.degradations) == 2
        assert len(schedule.overloads) == 2


class TestPartitionFamily:
    """Seeding discipline of the newest family (partitions)."""

    def test_repr_omits_empty_partition_family(self):
        # Published schedule digests hash repr(schedule); a schedule with
        # no partitions must render byte-identically to the pre-partition
        # dataclass repr.
        schedule = _streamed(7)
        assert schedule.partitions == ()
        assert "partitions=" not in repr(schedule)

    def test_repr_shows_partitions_when_drawn(self):
        schedule = _streamed(7, partition_windows=1)
        assert len(schedule.partitions) == 1
        assert "partitions=" in repr(schedule)

    def test_legacy_partitions_draw_after_every_other_family(self):
        # Enabling partitions leaves every earlier family byte-identical.
        plain = _streamed(13, degradations=2, overload_windows=2)
        extended = _streamed(
            13, degradations=2, overload_windows=2, partition_windows=2
        )
        for family in (
            "drops",
            "delays",
            "duplicates",
            "crashes",
            "churn",
            "degradations",
            "overloads",
        ):
            assert getattr(extended, family) == getattr(plain, family)
        assert len(extended.partitions) == 2

    def test_streamed_partition_count_is_independent(self):
        base = _streamed(29, degradations=1, overload_windows=1)
        cut = _streamed(
            29, degradations=1, overload_windows=1, partition_windows=3
        )
        for family in (
            "drops",
            "delays",
            "duplicates",
            "crashes",
            "churn",
            "degradations",
            "overloads",
        ):
            assert getattr(cut, family) == getattr(base, family)
        assert len(cut.partitions) == 3
        # ... and window i keeps its identity as the count grows.
        more = _streamed(
            29, degradations=1, overload_windows=1, partition_windows=5
        )
        assert more.partitions[:3] == cut.partitions

    def test_matches_manual_partition_substream_draws(self):
        # The documented key scheme: window i of the partition family
        # draws from substream ("faults.partition", i) of the manager.
        manager = RNGManager(base_seed=41)
        expected = tuple(
            _draw_partition(
                manager.substream("faults.partition", i), REPLICAS, HORIZON_MS
            )
            for i in range(2)
        )
        schedule = _streamed(41, partition_windows=2)
        assert schedule.partitions == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_partitions_are_valid_and_drained(self, seed):
        schedule = _streamed(seed, partition_windows=3)
        assert len(schedule.partitions) == 3
        for fault in schedule.partitions:
            assert set(fault.side) <= set(REPLICAS)
            assert fault.mode in ("symmetric", "outbound", "inbound")
            assert fault.end_ms <= HORIZON_MS * 0.85
            assert fault.start_ms < fault.end_ms


class TestClockFamily:
    """Seeding discipline of the clock-fault family (ISSUE 10)."""

    def test_repr_omits_empty_clock_family(self):
        # Published schedule digests hash repr(schedule); a schedule with
        # no clock windows must render byte-identically to the
        # pre-clock-plane dataclass repr.
        schedule = _streamed(7)
        assert schedule.clocks == ()
        assert "clocks=" not in repr(schedule)

    def test_repr_shows_clocks_when_drawn(self):
        schedule = _streamed(7, clock_windows=1)
        assert len(schedule.clocks) == 1
        assert "clocks=" in repr(schedule)

    def test_legacy_clocks_draw_after_every_other_family(self):
        # Enabling clock windows leaves every earlier family — including
        # partitions — byte-identical.
        plain = _streamed(
            13, degradations=2, overload_windows=2, partition_windows=2
        )
        extended = _streamed(
            13,
            degradations=2,
            overload_windows=2,
            partition_windows=2,
            clock_windows=2,
        )
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
            assert getattr(extended, family) == getattr(plain, family)
        assert len(extended.clocks) == 2

    def test_streamed_clock_count_is_independent(self):
        base = _streamed(
            29, degradations=1, overload_windows=1, partition_windows=1
        )
        clocked = _streamed(
            29,
            degradations=1,
            overload_windows=1,
            partition_windows=1,
            clock_windows=3,
        )
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
            assert getattr(clocked, family) == getattr(base, family)
        assert len(clocked.clocks) == 3
        # ... and window i keeps its identity as the count grows.
        more = _streamed(
            29,
            degradations=1,
            overload_windows=1,
            partition_windows=1,
            clock_windows=5,
        )
        assert more.clocks[:3] == clocked.clocks

    def test_matches_manual_clock_substream_draws(self):
        # The documented key scheme: window i of the clock family draws
        # from substream ("faults.clock", i) of the manager.
        manager = RNGManager(base_seed=41)
        expected = tuple(
            _draw_clock_fault(
                manager.substream("faults.clock", i), REPLICAS, HORIZON_MS
            )
            for i in range(2)
        )
        schedule = _streamed(41, clock_windows=2)
        assert schedule.clocks == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_clocks_are_valid_and_drained(self, seed):
        schedule = _streamed(seed, clock_windows=3)
        assert len(schedule.clocks) == 3
        for fault in schedule.clocks:
            assert fault.host in REPLICAS
            assert fault.kind in ("skew", "drift", "step", "freeze", "jitter")
            assert fault.end_ms <= HORIZON_MS * 0.85
            assert fault.start_ms < fault.end_ms


class TestDrainedWindows:
    @pytest.mark.parametrize("seed", range(20))
    def test_degradations_and_overloads_end_by_85_percent(self, seed):
        schedule = _streamed(seed, degradations=3, overload_windows=3)
        for fault in schedule.degradations + schedule.overloads:
            assert fault.end_ms <= HORIZON_MS * 0.85
            assert fault.start_ms < fault.end_ms
