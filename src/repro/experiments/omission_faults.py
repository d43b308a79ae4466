"""Ablation A10 — message loss (omission faults).

The paper's fault model is crash + load; its redundancy mechanism,
however, also masks *omission* faults for free: a lost request or reply
only matters if it happens on every selected replica's path.  We sweep
the per-link loss probability and compare the dynamic policy against
single-fastest (where any loss costs the full response-timeout).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..workload.scenarios import ScenarioConfig
from .harness import run_clients, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["LOSS_RATES", "POLICIES", "grid", "point", "EXPERIMENT"]

LOSS_RATES = (0.0, 0.01, 0.02, 0.05, 0.10)
POLICIES = ("dynamic (paper)", "single-fastest")
DEADLINE_MS, MIN_PROBABILITY = 180.0, 0.9


def grid(
    loss_rates: Sequence[float] = LOSS_RATES, num_requests: int = 40
) -> Tuple[dict, ...]:
    """Both policies across the per-link loss sweep."""
    return cartesian(
        policy=POLICIES, loss_probability=loss_rates, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One single-client run at one per-link loss probability."""
    _scenario, (client,) = run_clients(
        ScenarioConfig(
            seed=seed,
            loss_probability=params["loss_probability"],
            response_timeout_factor=3.0,
        ),
        1,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        policy=params["policy"],
    )
    return summary_metrics(client.summary())


EXPERIMENT = Experiment(
    key="A10",
    title="A10 omission faults",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(loss_rates=(0.0, 0.05), num_requests=20),
    quick_seeds=(0,),
    tables=(
        Table(
            "Omission faults: per-link loss sweep "
            "(deadline 180 ms, Pc = 0.9, budget 0.10)",
            (
                ("policy", "policy"),
                ("link loss", "loss_probability"),
                ("failure prob", "failure_probability"),
                ("timeout frac", "timeout_fraction"),
                ("redundancy", "mean_redundancy"),
            ),
        ),
    ),
)
