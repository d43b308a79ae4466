"""Benchmark — Figure 3: selection-algorithm overhead vs. n and l.

The benchmarked callable is one full selection (distribution computation
for every replica + Algorithm 1), the per-request cost the paper plots.

Two variants of the one shipped estimator are measured:

* **uncached** — ``invalidate()`` before every selection, so every
  request recomputes every distribution (window pmfs from the maintained
  counts, all ``S ⊛ W`` in one batched kernel);
* **cached** — nothing forgotten and unchanged windows, the steady-state
  hot path of the handler.

(The printed Fig. 3 table, ``python -m repro.experiments fig3``, times
the paper's own from-the-raw-windows cost model instead; its shape is
checked in ``tests/experiments/test_shapes.py``.)

``test_cached_speedup_exported`` writes the cached-vs-uncached curves to
``BENCH_estimator.json`` at the repository root (format documented in
docs/PERFORMANCE.md) so the performance trajectory is tracked PR over PR.
"""

import pathlib

import pytest

from repro.core.estimator import ResponseTimeEstimator
from repro.core.selection import ReplicaProbability, select_replicas
from repro.experiments.fig3_overhead import (
    build_loaded_repository,
    export_estimator_bench,
    run_cached_comparison,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _one_selection(repository, estimator, deadline=150.0, invalidate=True):
    if invalidate:
        estimator.invalidate()
    replicas = repository.replicas()
    candidates = [
        ReplicaProbability(name, probability)
        for name, probability in zip(
            replicas, estimator.batch_probability_by(replicas, deadline)
        )
    ]
    return select_replicas(candidates, 0.9)


@pytest.mark.parametrize("window_size", [5, 10, 20])
@pytest.mark.parametrize("num_replicas", [2, 4, 6, 8])
def test_fig3_selection_overhead(benchmark, num_replicas, window_size):
    repository = build_loaded_repository(num_replicas, window_size, seed=0)
    # Fresh distributions each request (_one_selection invalidates).
    estimator = ResponseTimeEstimator(repository)

    result = benchmark(lambda: _one_selection(repository, estimator))
    assert 1 <= result.redundancy <= num_replicas
    benchmark.extra_info["num_replicas"] = num_replicas
    benchmark.extra_info["window_size"] = window_size


@pytest.mark.parametrize("window_size", [20, 60])
@pytest.mark.parametrize("num_replicas", [4, 8])
def test_fig3_cached_selection_overhead(benchmark, num_replicas, window_size):
    """Steady-state cost with every entry current."""
    repository = build_loaded_repository(num_replicas, window_size, seed=0)
    estimator = ResponseTimeEstimator(repository)
    _one_selection(repository, estimator, invalidate=False)  # warm

    result = benchmark(
        lambda: _one_selection(repository, estimator, invalidate=False)
    )
    assert 1 <= result.redundancy <= num_replicas
    assert estimator.cache_info()["misses"] <= num_replicas  # warm-up only
    benchmark.extra_info["num_replicas"] = num_replicas
    benchmark.extra_info["window_size"] = window_size


def test_fig3_distribution_computation_dominates(benchmark):
    """The paper attributes ~90 % of the overhead to the distributions."""
    from repro.experiments.fig3_overhead import measure_overhead

    point = benchmark.pedantic(
        lambda: measure_overhead(7, 5, iterations=50),
        rounds=1,
        iterations=1,
    )
    assert point.distribution_fraction > 0.8
    benchmark.extra_info["distribution_fraction"] = round(
        point.distribution_fraction, 4
    )


def test_cached_speedup_exported(benchmark):
    """Acceptance: cached δ ≥ 5× lower than uncached at l = 60.

    Also exports the full cached-vs-uncached curve set to
    ``BENCH_estimator.json`` so later PRs can compare against it.
    """
    comparisons = benchmark.pedantic(
        lambda: run_cached_comparison(
            replica_counts=(2, 4, 8),
            window_sizes=(5, 20, 60),
            iterations=100,
        ),
        rounds=1,
        iterations=1,
    )
    export_estimator_bench(comparisons, str(REPO_ROOT / "BENCH_estimator.json"))
    for comparison in comparisons:
        if comparison.window_size == 60:
            assert comparison.speedup >= 5.0, (
                f"cached path only {comparison.speedup:.1f}x faster at "
                f"n={comparison.num_replicas}, l=60"
            )
    benchmark.extra_info["speedups"] = {
        f"n={c.num_replicas},l={c.window_size}": round(c.speedup, 1)
        for c in comparisons
    }
