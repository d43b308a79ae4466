"""§5.1 — the factors influencing the response time.

The paper's authors ran an off-line analysis and concluded that a
replica's response time in AQuA is "mainly affected by" the
gateway-to-gateway delay, the queuing delay and the service time — the
decomposition that becomes Equation 2 — and justified Equation 1's
independence assumption by noting "the network delay is usually a small
fraction of the replica's response time in a LAN environment".

This harness reruns that analysis on our stack: it runs the paper's
workload and prints the per-stage latency decomposition along the winning
reply path, read off each request's outcome.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.stages import extract_stages, stage_summaries
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients
from .registry import Cell, Experiment, Row, Table

__all__ = ["STAGES", "point", "stage_rows", "EXPERIMENT"]

STAGES = ("client", "request-net", "queueing", "service", "reply-net", "total")
NUM_CLIENTS = 2
DEADLINE_MS, MIN_PROBABILITY = 200.0, 0.5


def point(params: dict, seed: int, repetition: int) -> Dict[str, Dict[str, float]]:
    """Run the paper's workload; ``{stage: {mean_ms, p90_ms}}``."""
    _scenario, clients = run_clients(
        ScenarioConfig(seed=seed),
        NUM_CLIENTS,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
    )
    summaries = stage_summaries(
        extract_stages(o for client in clients for o in client.outcomes)
    )
    return {
        stage: {"mean_ms": summaries[stage].mean, "p90_ms": summaries[stage].p90}
        for stage in STAGES
    }


def stage_rows(cells: Sequence[Cell]) -> List[Row]:
    """One row per stage of the (single) run, plus the network share."""
    ((_params, (run,)),) = cells
    total = run["total"]["mean_ms"]
    network = sum(run[s]["mean_ms"] for s in STAGES if s.endswith("-net"))
    return [
        {
            "stage": stage,
            **run[stage],
            "share_of_total": (
                1.0 if stage == "total"
                else run[stage]["mean_ms"] / total if total else 0.0
            ),
            "network_share": network / total,
        }
        for stage in STAGES
    ]


EXPERIMENT = Experiment(
    key="factors",
    title="§5.1 factors",
    point=point,
    grid=({"num_requests": 100},),
    seeds=(0,),
    quick_grid=({"num_requests": 30},),
    quick_seeds=(0,),
    rows=stage_rows,
    tables=(
        Table(
            "Factors influencing the response time (paper §5.1; winning-reply "
            "path, 2 clients x 100 requests)",
            (
                ("stage", "stage"),
                ("mean ms", "mean_ms"),
                ("p90 ms", "p90_ms"),
                ("share of total", "share_of_total"),
            ),
            note=(
                "\nNetwork share of the response time: {network_share:.1%} — "
                "'a small fraction' as the paper's independence argument requires."
            ),
        ),
    ),
)
