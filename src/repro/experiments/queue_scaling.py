"""Ablation A11 — queue-scaled response-time estimation under load.

The paper's repository stores the replica's *current* queue length
(§5.2) but the base model predicts the queuing delay only from the
sliding window of *past* delays.  When many clients drive the queues,
the window lags the backlog: a replica can look attractive because its
last five serviced requests waited briefly, even though ten requests are
queued right now.

:class:`~repro.core.estimator.QueueScaledEstimator` is our implementation
of the obvious refinement — rescale the windowed queuing pmf by the
published queue depth.  This ablation measures what it buys at increasing
client counts.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.estimator import QueueScaledEstimator
from ..sim.random import Exponential
from ..workload.scenarios import ScenarioConfig
from .harness import pooled_metrics, run_clients
from .registry import Experiment, Table, cartesian

__all__ = ["ESTIMATORS", "grid", "point", "EXPERIMENT"]

#: Table label → whether the handler runs the queue-scaled estimator.
ESTIMATORS = {"windowed (paper)": False, "queue-scaled": True}
DEADLINE_MS, MIN_PROBABILITY = 160.0, 0.9
THINK_MEAN_MS = 700.0


def grid(
    client_counts: Sequence[int] = (2, 6, 10), num_requests: int = 30
) -> Tuple[dict, ...]:
    """Both estimators across client counts."""
    return cartesian(
        estimator=ESTIMATORS, num_clients=client_counts, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One multi-client run; means request-weighted across the clients."""
    handler_kwargs = {}
    if ESTIMATORS[params["estimator"]]:
        handler_kwargs["estimator_factory"] = QueueScaledEstimator
    _scenario, clients = run_clients(
        ScenarioConfig(seed=seed),
        params["num_clients"],
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        think_time=Exponential(THINK_MEAN_MS),
        handler_kwargs=handler_kwargs,
    )
    return pooled_metrics([c.summary() for c in clients])


EXPERIMENT = Experiment(
    key="A11",
    title="A11 queue scaling",
    point=point,
    grid=grid(),
    seeds=(0, 1),
    quick_grid=grid(client_counts=(2, 6), num_requests=15),
    quick_seeds=(0,),
    tables=(
        Table(
            "Queue-scaled estimation under load (deadline 160 ms, Pc = 0.9)",
            (
                ("estimator", "estimator"),
                ("clients", "num_clients"),
                ("failure prob", "failure_probability"),
                ("redundancy", "mean_redundancy"),
                ("response ms", "mean_response_ms"),
            ),
        ),
    ),
)
