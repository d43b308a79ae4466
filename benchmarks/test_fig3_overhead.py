"""Host-timing gates on the shipped estimator (Figure 3's second table).

Two variants of the one shipped estimator are compared:

* **uncached** — ``invalidate()`` before every selection, so every
  request recomputes every distribution (window pmfs from the maintained
  counts, all ``S ⊛ W`` in one batched kernel);
* **cached** — nothing forgotten and unchanged windows, the steady-state
  hot path of the handler.

(The printed Fig. 3 table, ``python -m repro.experiments fig3``, times
the paper's own from-the-raw-windows cost model instead; its shape is
checked in ``tests/experiments/test_shapes.py``.)

These tests only assert.  ``BENCH_estimator.json`` has one producer,
``python -m repro.experiments fig3 --json BENCH_estimator.json``.
"""

from repro.experiments.fig3_overhead import measure_overhead, run_cached_comparison


def test_distribution_computation_dominates():
    """The paper attributes ~90 % of the overhead to the distributions."""
    point = measure_overhead(7, 5, iterations=50)
    assert point.distribution_fraction > 0.8


def test_cached_speedup_at_l60():
    """Acceptance: cached δ ≥ 5× lower than uncached at l = 60."""
    for comparison in run_cached_comparison(
        replica_counts=(2, 4, 8), window_sizes=(60,), iterations=100
    ):
        assert comparison.speedup >= 5.0, (
            f"cached path only {comparison.speedup:.1f}x faster at "
            f"n={comparison.num_replicas}, l=60"
        )
