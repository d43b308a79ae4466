"""Host-timing gates at fleet scale (CI job ``bench-scale``).

One *cached* selection over a 1024-replica fleet stays under 1 ms
(ISSUE 7); a selection after one replica pushed an update (what a live
request pays) costs at most 2.5x the nothing-changed one (ISSUE 14); the
kernel's event queue sustains a dispatch-rate floor; one message through
the untraced message plane stays under a ceiling (ISSUE 21).

These tests only assert.  ``BENCH_scale.json`` has one producer,
``python -m repro.experiments scale --json BENCH_scale.json``, which the
CI job runs first and uploads.
"""

from repro.experiments.bench_scale import (
    measure_kernel_throughput,
    measure_message_throughput,
    measure_selection_scale,
)

#: ISSUE 7's budget for one cached selection, at every grid point.
CACHED_US_CEILING = 1000.0

#: One dirty replica must cost O(one row), not O(fleet): the ratio to the
#: nothing-changed selection at n = 1024 (measured ~1.2; ~7 if a write
#: invalidates the whole matrix).  A ratio of two same-run timings, so
#: host speed cancels.
DIRTY1_OVER_CACHED_CEILING = 2.5

#: Generous floor for the event queue: it clocks >300k events/sec on a
#: developer laptop; 50k trips only on a genuine regression, not on a
#: noisy CI runner.
KERNEL_EVENTS_PER_SEC_FLOOR = 50_000.0

#: Generous ceiling for one message, construction to (no-op) handler:
#: ~5.5 us on the host that measured it, 10.4 us before ISSUE 21.  Twenty
#: trips on a plane that has grown a per-message cost, not on a slow
#: runner.
MESSAGE_US_CEILING = 20.0


def test_cached_selection_under_1ms_and_one_dirty_row_stays_cheap():
    """n ∈ {64, 256, 1024} × l ∈ {60, 240}; the ratio gate at n = 1024."""
    points = measure_selection_scale(cached_iterations=20, uncached_iterations=1)
    assert any(p.num_replicas == 1024 for p in points)
    for point in points:
        assert point.cached_us < CACHED_US_CEILING, (
            f"cached selection at n={point.num_replicas}, "
            f"l={point.window_size} took {point.cached_us:.0f} us "
            f"(budget: {CACHED_US_CEILING:.0f} us)"
        )
        if point.num_replicas == 1024:
            ratio = point.dirty1_us / point.cached_us
            assert ratio <= DIRTY1_OVER_CACHED_CEILING, (
                f"one dirty replica at n=1024, l={point.window_size} costs "
                f"{point.dirty1_us:.0f} us, {ratio:.1f}x the cached "
                f"{point.cached_us:.0f} us "
                f"(ceiling: {DIRTY1_OVER_CACHED_CEILING}x)"
            )


def test_kernel_throughput_floor():
    """The kernel's event queue sustains the minimum dispatch rate."""
    point = measure_kernel_throughput(pending_timers=512, target_events=100_000)
    assert point.events_per_sec >= KERNEL_EVENTS_PER_SEC_FLOOR, (
        f"kernel dispatched only {point.events_per_sec:.0f} events/sec "
        f"(floor: {KERNEL_EVENTS_PER_SEC_FLOOR:.0f})"
    )


def test_message_cost_ceiling():
    """One message through net + kernel + gateway routing stays cheap."""
    point = measure_message_throughput(target_messages=50_000)
    assert point.us_per_message <= MESSAGE_US_CEILING, (
        f"a message cost {point.us_per_message:.1f} us "
        f"(ceiling: {MESSAGE_US_CEILING:.0f})"
    )
