"""Layer probes: no simulator, run once, reported beside the layer metrics.

``BENCH_scale.json``'s "cached" selection point is the nothing-changed
case; in a live run every reply dirties one replica's windows first.
The ``decide_us_dirtyK_n1024`` probes measure that: push ``K`` fresh
samples through ``record_performance``, then time one
``DynamicSelectionPolicy.decide`` over 1024 replicas with ``l = 60``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Any, Dict, List

__all__ = ["run_probes"]

REPLICAS = 1024
WINDOW = 60
DEADLINE_MS = 150.0
MIN_PROBABILITY = 0.9
CRASH_TOLERANCE = 1


def _postcondition_holds(decision: Any, replicas: List[str]) -> bool:
    """Algorithm 1's postcondition, recomputed from the decision itself.

    Either the set still meets ``Pc`` with its ``CRASH_TOLERANCE`` best
    members crashed (``P_X(t) >= Pc``), or it is select-all.
    """
    if set(decision.selected) == set(replicas):
        return True
    probabilities = sorted(
        decision.meta["probabilities"][name] for name in decision.selected
    )
    survivors = probabilities[: len(probabilities) - CRASH_TOLERANCE]
    crash_safe = 1.0 - math.prod(1.0 - p for p in survivors)
    return crash_safe >= MIN_PROBABILITY


def run_probes(seed: int, scale: float) -> Dict[str, Any]:
    """Every layer probe; ``problems`` lists failed postconditions."""
    import numpy as np
    from repro.core.estimator import ResponseTimeEstimator
    from repro.core.qos import QoSSpec
    from repro.core.selection import DynamicSelectionPolicy, SelectionContext
    from repro.experiments.bench_scale import measure_kernel_throughput
    from repro.experiments.fig3_overhead import build_loaded_repository

    repository = build_loaded_repository(REPLICAS, WINDOW, seed=seed)
    estimator = ResponseTimeEstimator(repository)
    policy = DynamicSelectionPolicy(
        crash_tolerance=CRASH_TOLERANCE, fixed_overhead_ms=0.0
    )
    replicas = repository.replicas()
    rng = np.random.default_rng(seed)
    context = SelectionContext(
        replicas=replicas,
        estimator=estimator,
        qos=QoSSpec("search", DEADLINE_MS, MIN_PROBABILITY),
        now_ms=float(WINDOW),
        rng=rng,
    )
    policy.decide(context)  # warm every cache layer
    # Peak RSS of this child with the warm n=1024 repository and
    # estimator resident (interpreter and numpy included), before the
    # timing loops allocate anything else.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cycles = max(30, round(300 * scale))
    problems: List[str] = []
    metrics: Dict[str, float] = {"core.repository.rss_mb_n1024": rss_mb}
    cursor = 0
    for dirty in (0, 1, 8):
        samples = []
        for _ in range(cycles):
            for _ in range(dirty):
                repository.record_performance(
                    replicas[cursor % REPLICAS],
                    max(0.0, rng.normal(100.0, 50.0)),
                    max(0.0, rng.exponential(20.0)),
                    queue_length=int(rng.integers(0, 4)),
                    now_ms=float(WINDOW + cursor),
                )
                cursor += 1
            started = time.perf_counter()
            decision = policy.decide(context)
            samples.append((time.perf_counter() - started) * 1e6)
            if not _postcondition_holds(decision, replicas):
                problems.append(
                    f"dirty{dirty}: selected set misses Algorithm 1's postcondition"
                )
        metrics[f"core.estimator.decide_us_dirty{dirty}_n1024"] = statistics.median(
            samples
        )
    kernel = measure_kernel_throughput(512, max(20_000, round(200_000 * scale)))
    metrics["sim.kernel.events_per_s_p512"] = kernel.events_per_sec
    return {"metrics": metrics, "cycles": cycles, "problems": problems}
