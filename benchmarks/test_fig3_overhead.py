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

from repro.experiments.fig3_overhead import measure_overhead, measure_selection


def test_distribution_computation_dominates():
    """The paper attributes ~90 % of the overhead to the distributions."""
    point = measure_overhead(7, 5, iterations=50)
    assert point.distribution_fraction > 0.8


def test_cached_speedup_at_l60():
    """Acceptance: cached δ ≥ 5× lower than uncached at l = 60."""
    for point in measure_selection((2, 4, 8), (60,), 100, 100):
        assert point.speedup >= 5.0, (
            f"cached path only {point.speedup:.1f}x faster at "
            f"n={point.num_replicas}, l=60"
        )
