"""Ablation A2 — single-crash tolerance of the selected set (§5.3.2).

Algorithm 1 always includes the individually best replica ``m0`` but
proves the client's probability *without* it, so the selected set absorbs
any single member crash.  We validate the end-to-end consequence: a
replica crashing mid-run (we crash ``replica-1``, frequently the best)
must not push the client's observed failure probability past its budget,
whereas a single-replica policy loses every request sent to the dead
replica until membership eviction.
"""

from __future__ import annotations

from typing import Dict

from ..workload.scenarios import ScenarioConfig
from .harness import run_clients, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["POLICIES", "point", "EXPERIMENT"]

POLICIES = (
    "dynamic (paper)",
    "single-fastest",
    "dynamic, no crash hedge",
    "dynamic, 2-crash hedge",
)
DEADLINE_MS, MIN_PROBABILITY = 160.0, 0.9
CRASH_AT_MS = 10_000.0
GRID = cartesian(policy=POLICIES, num_requests=[50])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One single-client run; ``replica-1`` crashes at t = 10 s."""
    _scenario, (client,) = run_clients(
        ScenarioConfig(seed=seed),
        1,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        policy=params["policy"],
        crash_at_ms=CRASH_AT_MS,
    )
    return summary_metrics(client.summary())


EXPERIMENT = Experiment(
    key="A2",
    title="A2 crash tolerance",
    point=point,
    grid=GRID,
    seeds=(0, 1, 2, 3, 4),
    quick_grid=GRID,
    quick_seeds=(0,),
    tables=(
        Table(
            "Crash tolerance: replica-1 crashes at t=10 s "
            "(deadline 160 ms, Pc = 0.9, budget 0.10)",
            (
                ("policy", "policy"),
                ("failure prob", "failure_probability"),
                ("timeout frac", "timeout_fraction"),
                ("mean redundancy", "mean_redundancy"),
                ("runs", "runs"),
            ),
        ),
    ),
)
