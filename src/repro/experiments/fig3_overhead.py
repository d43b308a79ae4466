"""Figure 3 — overhead of the selection algorithm.

The paper measures, per request, the time to (a) compute the response-time
distribution functions and (b) run Algorithm 1 over them, as the number of
replicas grows from 2 to 8, for sliding windows of 5, 10 and 20 entries.
Distribution computation dominates (~90 % of the total).

We measure the same two components with ``time.perf_counter``, under the
paper's cost model: per request, every pmf is rebuilt from the raw window
samples and every replica pays one convolution
(:func:`paper_model_probabilities`).  Absolute microseconds differ from
the paper's hardware (they report 100–900 µs on year-2000 Linux boxes);
the claims to reproduce are the *shape*: cost grows with both n and l,
and the distribution computation dominates.

The shipped :class:`ResponseTimeEstimator` does not work that way: it
maintains bin counts per window and convolves all stale rows in one FFT
sized by the value range, so even from nothing its cost barely moves with
l.  The second table and ``bench_scale`` time that estimator with one
loop (:func:`measure_selection`) over two grids: ``invalidate()`` before
every selection (uncached), one or eight replicas updated since the last
selection (dirty) and nothing changed (cached).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.distribution import DiscretePMF
from ..core.estimator import ResponseTimeEstimator
from ..core.repository import InformationRepository
from ..core.selection import select_replicas_arrays
from ..rng import seeded_generator
from .harness import print_table
from .registry import Command, flag_value

__all__ = [
    "OverheadPoint",
    "SelectionPoint",
    "build_loaded_repository",
    "paper_model_probabilities",
    "measure_overhead",
    "run",
    "measure_selection",
    "export_estimator_bench",
    "main",
    "EXPERIMENT",
]


@dataclass(frozen=True)
class OverheadPoint:
    """One (n, l) measurement."""

    num_replicas: int
    window_size: int
    total_us: float
    distribution_us: float
    selection_us: float

    @property
    def distribution_fraction(self) -> float:
        """Share of the overhead spent computing distribution functions."""
        if self.total_us == 0:
            return 0.0
        return self.distribution_us / self.total_us


def _push_measurement(
    repository: InformationRepository, name: str, rng: np.random.Generator,
    now_ms: float,
) -> None:
    """One realistic performance update for ``name``."""
    service = max(0.0, rng.normal(100.0, 50.0))
    queueing = max(0.0, rng.exponential(20.0))
    repository.record_performance(
        name, service, queueing, queue_length=int(rng.integers(0, 4)),
        now_ms=now_ms,
    )


def build_loaded_repository(
    num_replicas: int, window_size: int, seed: int = 0
) -> InformationRepository:
    """A repository with full windows of realistic measurements."""
    rng = seeded_generator(seed)
    repository = InformationRepository(window_size=window_size)
    for index in range(num_replicas):
        name = f"replica-{index + 1}"
        repository.add_replica(name)
        for step in range(window_size):
            _push_measurement(repository, name, rng, float(step))
        repository.record_gateway_delay(
            name, max(0.0, rng.normal(3.0, 0.5)), now_ms=float(window_size)
        )
    return repository


def paper_model_probabilities(
    repository: InformationRepository,
    replicas: Sequence[str],
    deadline_ms: float,
) -> List[float]:
    """``F_{R_i}(deadline)`` the way the paper's handler computes it (§5.3).

    Relative-frequency pmfs of ``S_i`` and ``W_i`` straight from the raw
    window samples, one ``S_i ⊛ W_i`` per replica, shifted by ``T_i`` —
    nothing kept between requests.  A timing reference for Fig. 3 only;
    the values equal :meth:`ResponseTimeEstimator.batch_probability_by`.
    """
    results = []
    for name in replicas:
        record = repository.record(name)
        assert record.gateway_delay_ms is not None
        pmf = DiscretePMF.from_samples(record.service_times.values()).convolve(
            DiscretePMF.from_samples(record.queue_delays.values())
        )
        results.append(pmf.shift(record.gateway_delay_ms).cdf(deadline_ms))
    return results


def _time_selections(
    repository: InformationRepository,
    probabilities: Callable[[Sequence[str], float], Sequence[Optional[float]]],
    iterations: int,
    deadline_ms: float = 150.0,
    min_probability: float = 0.9,
    before_each: Callable[[int], None] = lambda iteration: None,
) -> OverheadPoint:
    """Mean cost of ``probabilities`` and of Algorithm 1 over its result.

    ``before_each(iteration)`` runs outside the timed region.
    """
    replicas = repository.replicas()
    names = np.asarray(replicas)
    distribution_s = 0.0
    selection_s = 0.0
    for iteration in range(iterations):
        before_each(iteration)
        started = time.perf_counter()
        computed = np.asarray(probabilities(replicas, deadline_ms), dtype=float)
        mid = time.perf_counter()
        select_replicas_arrays(names, computed, min_probability)
        ended = time.perf_counter()
        distribution_s += mid - started
        selection_s += ended - mid

    distribution_us = distribution_s / iterations * 1e6
    selection_us = selection_s / iterations * 1e6
    return OverheadPoint(
        num_replicas=len(replicas),
        window_size=repository.window_size,
        total_us=distribution_us + selection_us,
        distribution_us=distribution_us,
        selection_us=selection_us,
    )


def measure_overhead(
    num_replicas: int,
    window_size: int,
    deadline_ms: float = 150.0,
    min_probability: float = 0.9,
    iterations: int = 200,
    seed: int = 0,
    cached: bool = False,
    dirty: int = 0,
) -> OverheadPoint:
    """Time one selection by the shipped estimator over ``iterations`` repeats.

    With ``cached=False`` the estimator forgets everything before each
    iteration (``invalidate()``) and so recomputes every distribution.
    With ``cached=True`` nothing is forgotten and the windows are
    unchanged between iterations: a selection costs one vectorized pass.
    ``dirty`` pushes that many performance updates (round-robin over the
    replicas, outside the timed region) before each iteration: in a live
    run every reply dirties one replica, so ``dirty=1`` — not ``dirty=0``
    — is the cost a request actually pays.
    """
    repository = build_loaded_repository(num_replicas, window_size, seed=seed)
    estimator = ResponseTimeEstimator(repository)
    replicas = repository.replicas()
    if cached:
        estimator.batch_probability_by(replicas, deadline_ms)  # warm
    rng = seeded_generator(seed + 1)

    def before_each(iteration: int) -> None:
        if not cached:
            estimator.invalidate()
        for push in range(iteration * dirty, (iteration + 1) * dirty):
            _push_measurement(
                repository, replicas[push % num_replicas], rng,
                float(window_size + 1 + push),
            )

    return _time_selections(
        repository, estimator.batch_probability_by, iterations,
        deadline_ms, min_probability, before_each,
    )


@dataclass(frozen=True)
class SelectionPoint:
    """The shipped estimator's selection cost at one ``(n, l)`` point, µs."""

    num_replicas: int
    window_size: int
    #: Nothing changed since the previous selection.
    cached_us: float
    #: One / eight replicas pushed an update since the previous selection
    #: (a live run: every reply dirties one).
    dirty1_us: float
    dirty8_us: float
    #: ``invalidate()`` before every selection: every distribution rebuilt.
    uncached_us: float

    @property
    def speedup(self) -> float:
        """How many times cheaper the cached steady-state selection is."""
        if self.cached_us == 0:
            return float("inf")
        return self.uncached_us / self.cached_us


def measure_selection(
    replica_counts: Sequence[int],
    window_sizes: Sequence[int],
    cached_iterations: int,
    uncached_iterations: int,
) -> List[SelectionPoint]:
    """Cached, 1-dirty, 8-dirty and uncached cost over an ``(n, l)`` grid.

    The one timing loop of Fig. 3's second table (n ≤ 8) and of the
    fleet-scale benchmark (n up to 1024), so the two are comparable.
    """
    points = []
    for window_size in window_sizes:
        for num_replicas in replica_counts:
            uncached = measure_overhead(
                num_replicas, window_size,
                iterations=uncached_iterations, cached=False,
            )
            cached, dirty1, dirty8 = (
                measure_overhead(
                    num_replicas, window_size,
                    iterations=cached_iterations, cached=True, dirty=dirty,
                )
                for dirty in (0, 1, 8)
            )
            points.append(
                SelectionPoint(
                    num_replicas=num_replicas,
                    window_size=window_size,
                    cached_us=cached.total_us,
                    dirty1_us=dirty1.total_us,
                    dirty8_us=dirty8.total_us,
                    uncached_us=uncached.total_us,
                )
            )
    return points


def export_estimator_bench(points: Sequence[SelectionPoint], path: str) -> None:
    """Write ``BENCH_estimator.json`` (format: docs/PERFORMANCE.md)."""
    payload = {
        "benchmark": "fig3-estimator-overhead",
        "unit": "microseconds per selection (mean over iterations)",
        "description": (
            "Per-request selection overhead delta: distributions + "
            "Algorithm 1.  uncached = the shipped estimator after "
            "invalidate() before every selection (every distribution "
            "recomputed, stale bases through the batched kernel); "
            "cached = the same estimator with unchanged windows; "
            "dirty1 / dirty8 = one / eight replicas updated before each "
            "selection.  Written only by `python -m repro.experiments "
            "fig3 --json FILE`: 200 iterations per arm (30 under --quick)."
        ),
        "points": [
            {
                "num_replicas": p.num_replicas,
                "window_size": p.window_size,
                "uncached_us": round(p.uncached_us, 3),
                "cached_us": round(p.cached_us, 3),
                "dirty1_us": round(p.dirty1_us, 3),
                "dirty8_us": round(p.dirty8_us, 3),
                "speedup": round(p.speedup, 2),
            }
            for p in points
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def run(
    replica_counts: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    window_sizes: Sequence[int] = (5, 10, 20),
    iterations: int = 200,
) -> List[OverheadPoint]:
    """All Figure 3 points (one per replica count per window size).

    Timed under the paper's cost model, which is what makes the cost grow
    with ``l`` as the figure shows.
    """
    points = []
    for window_size in window_sizes:
        for num_replicas in replica_counts:
            repository = build_loaded_repository(num_replicas, window_size)
            points.append(
                _time_selections(
                    repository,
                    partial(paper_model_probabilities, repository),
                    iterations,
                )
            )
    return points


def main(argv: Sequence[str] = ()) -> int:
    """Print the Figure 3 table and the cached-pipeline comparison;
    ``--json FILE`` exports the comparison (BENCH_estimator.json)."""
    iterations = 30 if "--quick" in argv else 200
    points = run(iterations=iterations)
    rows = [
        (
            p.window_size,
            p.num_replicas,
            p.total_us,
            p.distribution_us,
            p.selection_us,
            p.distribution_fraction,
        )
        for p in points
    ]
    print_table(
        "Figure 3: selection algorithm overhead (microseconds per request)",
        ["window l", "replicas n", "total us", "distribution us",
         "algorithm us", "distr. fraction"],
        rows,
    )
    selection = measure_selection((2, 4, 8), (5, 20, 60), iterations, iterations)
    print_table(
        "Cached vs uncached selection overhead (uncached: invalidate() per selection)",
        ["window l", "replicas n", "uncached us", "cached us", "1-dirty us",
         "8-dirty us", "speedup"],
        [
            (p.window_size, p.num_replicas, p.uncached_us, p.cached_us,
             p.dirty1_us, p.dirty8_us, p.speedup)
            for p in selection
        ],
    )
    path = flag_value(argv, "--json")
    if path:
        export_estimator_bench(selection, path)
        print(f"wrote {path}")
    return 0


EXPERIMENT = Command(key="fig3", title="Figure 3 (overhead)", main=main)
