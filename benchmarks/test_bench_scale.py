"""Host-timing gates at fleet scale (CI job ``bench-scale``).

One *cached* selection over a 1024-replica fleet stays under 1 ms
(ISSUE 7); what one replica's update adds to a selection does not depend
on the fleet, and a nothing-changed selection grows sub-linearly with it
(ISSUEs 14 and 24); the kernel's event queue sustains a dispatch-rate
floor; one message through the untraced message plane stays under a
ceiling (ISSUE 21).
A kernel timer costs little more than a bare heap entry.  One evidence
push costs a bounded multiple of one message.

These tests only assert.  ``BENCH_scale.json`` has one producer,
``python -m repro.experiments scale --json BENCH_scale.json``, which the
CI job runs first and uploads.
"""

import heapq
import itertools
import time

from repro.experiments.bench_scale import (
    REPLICA_COUNTS,
    WINDOW_SIZES,
    measure_evidence_push,
    measure_kernel_throughput,
    measure_message_throughput,
)
from repro.experiments.fig3_overhead import measure_selection

#: ISSUE 7's budget for one cached selection, at every grid point.
CACHED_US_CEILING = 1000.0

#: One dirty replica must cost O(one row), not O(fleet): what it adds to
#: the nothing-changed selection (``dirty1 - cached``) at n = 1024 over
#: the same difference at n = 64 (measured 1.0-1.6; ~5 if a write makes
#: the next selection re-read every row, more if it rebuilds the state).
#: Ratios of same-run timings, so host speed cancels.
DIRTY_ROW_COST_GROWTH_CEILING = 2.5

#: A nothing-changed selection is Algorithm 1 over n probabilities, not a
#: pass over every row: n = 1024 over n = 64 (measured 5-7; 16 is
#: linear, 10-14 with the pass).
CACHED_GROWTH_CEILING = 8.0

#: Generous floor for the event queue: it clocks >300k events/sec on a
#: developer laptop; 50k trips only on a genuine regression, not on a
#: noisy CI runner.
KERNEL_EVENTS_PER_SEC_FLOOR = 50_000.0

#: One timer through the kernel (``call_in``, heap entry, run-loop
#: dispatch) over one push, pop and call of a bare ``heapq`` loop running
#: the same 512 self-rescheduling timers, both timed in one process, so
#: host speed cancels.  Measured three times on one two-core host:
#: 3.5-3.6 when every timer was a ``Timeout`` holding a wrapper lambda in
#: its callback list, 2.0-2.05 with the callback itself as the heap
#: entry's payload.
KERNEL_OVER_BARE_HEAP_CEILING = 2.75

#: Generous ceiling for one message, construction to (no-op) handler:
#: ~5.5 us on the host that measured it, 10.4 us before ISSUE 21.  Twenty
#: trips on a plane that has grown a per-message cost, not on a slow
#: runner.
MESSAGE_US_CEILING = 20.0

#: One evidence push (a perf message on the same link into a real client
#: handler, its engine and both windows of the replica's record) over one
#: no-op message, timed in one process so host speed cancels.  Measured
#: 1.75-1.83 over five pairs on one two-core host (push 6.7-7.0 us,
#: message 3.7-3.9 us).  The tuple envelopes cheapened both probes in
#: step: the parent commit read 1.71-1.84 at 8.4-8.7 us per push.
#: The ceiling is the largest reading plus 15 %: it trips when the
#: handler, the engine or the repository write grows against the plane.
PUSH_OVER_MESSAGE_CEILING = 2.1


def test_cached_selection_under_1ms_and_one_dirty_row_stays_cheap():
    """n ∈ {64, 256, 1024} × l ∈ {60, 240}; the growth gates 64 -> 1024."""
    # Two sweeps, the smaller reading per cell: a slow spell on a shared
    # host inflates one reading (1 in 16 cached ones by 2x, measured); a
    # regression inflates both.
    sweeps = [
        measure_selection(REPLICA_COUNTS, WINDOW_SIZES, 50, 1)
        for _ in range(2)
    ]

    def fastest(arm):
        return {
            (a.num_replicas, a.window_size): min(getattr(a, arm), getattr(b, arm))
            for a, b in zip(*sweeps)
        }

    cached, dirty1 = fastest("cached_us"), fastest("dirty1_us")
    for (replicas, window), cost in cached.items():
        assert cost < CACHED_US_CEILING, (
            f"cached selection at n={replicas}, l={window} took {cost:.0f} us "
            f"(budget: {CACHED_US_CEILING:.0f} us)"
        )
    for window in sorted({window for _, window in cached}):
        small, large = (64, window), (1024, window)
        row_small = dirty1[small] - cached[small]
        row_large = dirty1[large] - cached[large]
        assert row_large <= DIRTY_ROW_COST_GROWTH_CEILING * row_small, (
            f"one dirty replica at l={window} adds {row_large:.0f} us at "
            f"n=1024 but {row_small:.0f} us at n=64 "
            f"(ceiling: {DIRTY_ROW_COST_GROWTH_CEILING}x)"
        )
        assert cached[large] <= CACHED_GROWTH_CEILING * cached[small], (
            f"nothing-changed selection at l={window}: {cached[large]:.0f} us "
            f"at n=1024, {cached[small]:.0f} us at n=64 "
            f"(ceiling: {CACHED_GROWTH_CEILING}x)"
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


def test_an_evidence_push_costs_a_bounded_multiple_of_a_message():
    """Admission and the repository write stay a small part of a push."""
    ratio = min(
        measure_evidence_push(20_000).us_per_message
        / measure_message_throughput(20_000).us_per_message
        for _ in range(2)
    )
    assert ratio <= PUSH_OVER_MESSAGE_CEILING, (
        f"an evidence push costs {ratio:.2f}x a no-op message "
        f"(ceiling: {PUSH_OVER_MESSAGE_CEILING}x)"
    )


def _bare_heap_us_per_event(pending_timers: int, target_events: int) -> float:
    """Microseconds per dispatch of the kernel's timer pattern on a bare heap."""
    heap, push, pop = [], heapq.heappush, heapq.heappop
    seq = itertools.count()
    now = 0.0

    def make_timer():
        def tick() -> None:
            push(heap, (now + 1.0, next(seq), tick))

        return tick

    for index in range(pending_timers):
        push(heap, (index / pending_timers, next(seq), make_timer()))
    started = time.perf_counter()
    for _ in range(target_events):
        now, _seq, fn = pop(heap)
        fn()
    return (time.perf_counter() - started) * 1e6 / target_events


def kernel_over_bare_heap(pending_timers: int = 512, target_events: int = 100_000) -> float:
    """Kernel cost per timer over the bare-heap reference, fastest of three each."""
    kernel_us, bare_us = [], []
    for _ in range(3):
        point = measure_kernel_throughput(pending_timers, target_events)
        kernel_us.append(1e6 / point.events_per_sec)
        bare_us.append(_bare_heap_us_per_event(pending_timers, target_events))
    return min(kernel_us) / min(bare_us)


def test_a_timer_costs_the_kernel_little_more_than_a_heap_entry():
    """No Event, callback list or wrapper is built per timer."""
    ratio = kernel_over_bare_heap()
    assert ratio <= KERNEL_OVER_BARE_HEAP_CEILING, (
        f"a call_in timer costs {ratio:.2f}x a bare heapq push, pop and call "
        f"(ceiling: {KERNEL_OVER_BARE_HEAP_CEILING}x)"
    )
