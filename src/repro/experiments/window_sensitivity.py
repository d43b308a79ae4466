"""Ablation A3 — sensitivity to the sliding-window size ``l`` (§5.2).

The paper chooses ``l`` "so that it includes a reasonable number of recent
requests but eliminates obsolete measurements" and uses l=5 for its
experiments.  We sweep l and report failure probability and redundancy on
the Fig. 4 workload, plus on a *non-stationary* variant where one replica's
load steps up mid-run — where a too-large window should visibly lag.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..replica.load import ConstantLoad, LoadModel, StepLoad
from ..workload.scenarios import ScenarioConfig
from .harness import run_two_client_experiment, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["WINDOW_SIZES", "grid", "point", "EXPERIMENT"]

WINDOW_SIZES = (2, 5, 10, 20, 50)
DEADLINE_MS, MIN_PROBABILITY = 140.0, 0.9


def _step_load(host: str) -> LoadModel:
    """Replicas 1-3 become 3x slower at t = 20 s."""
    if host in ("replica-1", "replica-2", "replica-3"):
        return StepLoad([(20_000.0, 3.0)], initial=1.0)
    return ConstantLoad(1.0)


def grid(
    window_sizes: Sequence[int] = WINDOW_SIZES, num_requests: int = 50
) -> Tuple[dict, ...]:
    """l swept on the stationary and the load-step workloads."""
    return cartesian(
        workload=("stationary", "load-step"),
        window_size=window_sizes,
        num_requests=[num_requests],
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One Fig. 4 run at window size l, optionally with the load step."""
    result = run_two_client_experiment(
        DEADLINE_MS,
        MIN_PROBABILITY,
        num_requests=params["num_requests"],
        config=ScenarioConfig(
            seed=seed,
            window_size=params["window_size"],
            load_factory=(
                _step_load if params["workload"] == "load-step" else None
            ),
        ),
    )
    return summary_metrics(result.client2)


EXPERIMENT = Experiment(
    key="A3",
    title="A3 window sensitivity",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(window_sizes=(2, 20), num_requests=20),
    quick_seeds=(0,),
    tables=(
        Table(
            "Sliding-window sensitivity (deadline 140 ms, Pc = 0.9)",
            (
                ("workload", "workload"),
                ("window l", "window_size"),
                ("failure prob", "failure_probability"),
                ("mean redundancy", "mean_redundancy"),
            ),
        ),
    ),
)
