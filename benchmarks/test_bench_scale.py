"""Benchmark — fleet-scale selection and event-kernel throughput.

CI smoke for ISSUE 7's scale targets: one *cached* selection over a
1024-replica fleet must stay under 1 ms, and the kernel's event queue
must sustain a healthy dispatch rate; for ISSUE 14's: a selection
after one replica pushed an update (what a live request pays) costs at
most 2.5x the nothing-changed one; and for ISSUE 21's: one message
through the untraced message plane stays under a ceiling.
``test_scale_bench_exported`` writes the full grid (n ∈ {64, 256,
1024}, l ∈ {60, 240}), the kernel throughput points and the message
cost to ``BENCH_scale.json`` at the repository root
(format documented in docs/PERFORMANCE.md §7) so the numbers are
tracked PR over PR; the ``bench-scale`` CI job uploads it as an
artifact.
"""

import pathlib

import numpy as np
import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.selection import select_replicas_arrays
from repro.experiments.bench_scale import (
    export_scale_bench,
    measure_kernel_throughput,
    measure_message_throughput,
    measure_selection_scale,
)
from repro.experiments.fig3_overhead import build_loaded_repository

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

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


@pytest.mark.parametrize("num_replicas", [64, 256, 1024])
def test_cached_selection_at_scale(benchmark, num_replicas):
    """Acceptance (ISSUE 7): cached selection over 1024 replicas < 1 ms."""
    repository = build_loaded_repository(num_replicas, window_size=60, seed=0)
    estimator = ResponseTimeEstimator(repository)
    replicas = repository.replicas()
    names = np.asarray(replicas)
    estimator.batch_probability_by(replicas, 150.0)  # warm

    def one_selection():
        probabilities = np.asarray(
            estimator.batch_probability_by(replicas, 150.0), dtype=float
        )
        return select_replicas_arrays(names, probabilities, 0.9)

    result = benchmark(one_selection)
    assert 1 <= result.redundancy <= num_replicas
    assert benchmark.stats.stats.mean < 1e-3, (
        f"cached selection over {num_replicas} replicas took "
        f"{benchmark.stats.stats.mean * 1e6:.0f} us (budget: 1000 us)"
    )
    benchmark.extra_info["num_replicas"] = num_replicas


def test_kernel_throughput_floor(benchmark):
    """The kernel's event queue sustains the minimum dispatch rate."""
    point = benchmark.pedantic(
        lambda: measure_kernel_throughput(
            pending_timers=512, target_events=100_000
        ),
        rounds=1,
        iterations=1,
    )
    assert point.events_per_sec >= KERNEL_EVENTS_PER_SEC_FLOOR, (
        f"kernel dispatched only {point.events_per_sec:.0f} events/sec "
        f"(floor: {KERNEL_EVENTS_PER_SEC_FLOOR:.0f})"
    )
    benchmark.extra_info["events_per_sec"] = round(point.events_per_sec, 1)


def test_message_cost_ceiling(benchmark):
    """One message through net + kernel + gateway routing stays cheap."""
    point = benchmark.pedantic(
        lambda: measure_message_throughput(target_messages=50_000),
        rounds=1,
        iterations=1,
    )
    assert point.us_per_message <= MESSAGE_US_CEILING, (
        f"a message cost {point.us_per_message:.1f} us "
        f"(ceiling: {MESSAGE_US_CEILING:.0f})"
    )
    benchmark.extra_info["us_per_message"] = round(point.us_per_message, 3)


def test_scale_bench_exported(benchmark):
    """Export the full scale grid to ``BENCH_scale.json``."""
    selection, kernel, message = benchmark.pedantic(
        lambda: (
            measure_selection_scale(
                cached_iterations=20, uncached_iterations=1
            ),
            [measure_kernel_throughput(pending_timers=n, target_events=50_000)
             for n in (64, 512, 4096)],
            measure_message_throughput(),
        ),
        rounds=1,
        iterations=1,
    )
    export_scale_bench(
        selection, kernel, message, str(REPO_ROOT / "BENCH_scale.json")
    )
    largest = [p for p in selection if p.num_replicas == 1024]
    assert largest, "scale grid must include the 1024-replica point"
    for point in largest:
        assert point.cached_us < 1000.0, (
            f"cached selection at n=1024, l={point.window_size} took "
            f"{point.cached_us:.0f} us (budget: 1000 us)"
        )
        ratio = point.dirty1_us / point.cached_us
        assert ratio <= DIRTY1_OVER_CACHED_CEILING, (
            f"one dirty replica at n=1024, l={point.window_size} costs "
            f"{point.dirty1_us:.0f} us, {ratio:.1f}x the cached "
            f"{point.cached_us:.0f} us (ceiling: {DIRTY1_OVER_CACHED_CEILING}x)"
        )
    benchmark.extra_info["cached_us"] = {
        f"n={p.num_replicas},l={p.window_size}": round(p.cached_us, 1)
        for p in selection
    }
