"""Ablation A1 — the dynamic policy vs. related-work baselines.

Runs the Fig. 4 workload (deadline 140 ms, Pc = 0.9 for client 2) under
every selection policy the paper's §1/§7 survey implies, plus the paper's
own, and reports observed failure probability, mean redundancy and mean
response time.  Expected shape: the dynamic policy meets the failure
budget with far less redundancy than send-to-all, while single-replica
policies (fastest / nearest / probe / random) blow the budget at tight
deadlines.  On the paper's one-segment LAN every replica is equally near,
so "nearest" is name order.

Also includes ablation A4: the dynamic policy with overhead compensation
disabled (selection against ``t`` instead of ``t − δ``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.baselines import (
    AllReplicasPolicy,
    FixedRedundancyPolicy,
    LowestMeanPolicy,
    NearestPolicy,
    PrimaryBackupPolicy,
    ProbeEstimatePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SingleFastestPolicy,
)
from ..core.selection import DynamicSelectionPolicy, SelectionPolicy
from .harness import two_client_point
from .registry import Cell, Experiment, Row, Table, cartesian, mean_rows

__all__ = ["POLICY_FACTORIES", "grid", "point", "ranked_rows", "EXPERIMENT"]


def _dynamic() -> SelectionPolicy:
    return DynamicSelectionPolicy(
        crash_tolerance=1, compensate_overhead=True, fixed_overhead_ms=0.3
    )


def _dynamic_uncompensated() -> SelectionPolicy:
    return DynamicSelectionPolicy(crash_tolerance=1, compensate_overhead=False)


#: Name → zero-argument factory for every policy in the comparison.
POLICY_FACTORIES: Dict[str, Callable[[], SelectionPolicy]] = {
    "dynamic (paper)": _dynamic,
    "dynamic, no t-delta": _dynamic_uncompensated,
    "all-replicas": AllReplicasPolicy,
    "single-fastest": SingleFastestPolicy,
    "lowest-mean": LowestMeanPolicy,
    "nearest": NearestPolicy,
    "probe-estimate": ProbeEstimatePolicy,
    "random-1": lambda: RandomPolicy(redundancy=1),
    "round-robin-1": lambda: RoundRobinPolicy(redundancy=1),
    "fixed-2": lambda: FixedRedundancyPolicy(redundancy=2),
    "primary-backup": PrimaryBackupPolicy,
}


def grid(num_requests: int = 50) -> Tuple[dict, ...]:
    """One point per policy name, all on the same workload (Pc = 0.9 at 140 ms)."""
    return cartesian(
        policy=POLICY_FACTORIES,
        deadline_ms=[140.0],
        min_probability=[0.9],
        num_requests=[num_requests],
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One two-client run under the named policy (both clients)."""
    run_params = dict(params)
    run_params["policy_factory"] = POLICY_FACTORIES[run_params.pop("policy")]
    return two_client_point(run_params, seed, repetition)


def ranked_rows(cells: Sequence[Cell]) -> List[Row]:
    """Mean rows, best policy first, each judged against its 1 − Pc budget."""
    rows = sorted(mean_rows(cells), key=lambda row: row["failure_probability"])
    for row in rows:
        budget = 1.0 - row["min_probability"]
        row["meets_budget"] = (
            "yes" if row["failure_probability"] <= budget else "NO"
        )
    return rows


EXPERIMENT = Experiment(
    key="A1",
    title="A1/A4 policy comparison",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(num_requests=20),
    quick_seeds=(0,),
    rows=ranked_rows,
    tables=(
        Table(
            "Policy comparison (deadline 140 ms, Pc = 0.9, budget 0.10)",
            (
                ("policy", "policy"),
                ("failure prob", "failure_probability"),
                ("meets budget", "meets_budget"),
                ("mean redundancy", "mean_redundancy"),
                ("mean response ms", "mean_response_ms"),
            ),
        ),
    ),
)
