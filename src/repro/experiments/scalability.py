"""Ablation A5 — scalability with the number of concurrent clients (§1/§4).

The paper motivates adaptive redundancy with the fault-tolerance/
scalability trade-off: all-replicas service gives every client maximal
protection but loads every replica with every request; single-replica
service scales but cannot hedge crashes or slow servers.  We sweep the
number of closed-loop clients and report, per policy, the failure
probability and the mean per-replica load (requests serviced per replica
per issued client request).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..sim.random import Exponential
from ..workload.scenarios import ScenarioConfig
from .harness import pooled_metrics, run_clients
from .registry import Experiment, Table, cartesian

__all__ = ["POLICIES", "grid", "point", "EXPERIMENT"]

POLICIES = ("dynamic (paper)", "all-replicas", "single-fastest")
DEADLINE_MS, MIN_PROBABILITY = 160.0, 0.9
THINK_MEAN_MS = 1000.0


def grid(
    client_counts: Sequence[int] = (1, 2, 4, 8, 16), num_requests: int = 30
) -> Tuple[dict, ...]:
    """Every policy at every client count."""
    return cartesian(
        policy=POLICIES, num_clients=client_counts, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One run of ``num_clients`` closed-loop clients under one policy.

    ``server_load_amplification`` is requests *serviced* per replica per
    issued request (the historic column): copies dropped on the wire or
    shed before dispatch never reach a servant, so it understates the
    offered load.  ``effective_load_amplification`` is copies *offered*
    to the server tier (multicast copies plus retransmitted copies) per
    admitted request (issued minus shed) — a shedding policy cannot game
    that one by dropping work.
    """
    scenario, clients = run_clients(
        ScenarioConfig(seed=seed),
        params["num_clients"],
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        policy=params["policy"],
        think_time=Exponential(THINK_MEAN_MS),
    )
    summaries = [c.summary() for c in clients]
    total_requests = sum(s.requests for s in summaries)
    served = sum(
        scenario.manager.handler_on(host).app.requests_served
        for host in scenario.config.replica_hosts()
    )
    # Offered copies: every multicast copy of every admitted request
    # (mean_redundancy is measured over non-shed outcomes) plus every
    # retransmitted copy, over the issued-minus-shed denominator.
    copies = sum(s.mean_redundancy * s.admitted for s in summaries)
    retransmitted = sum(
        getattr(handler, "retransmissions", 0)
        for handler in scenario.handlers.values()
    )
    admitted = sum(s.admitted for s in summaries)
    return {
        **pooled_metrics(summaries),
        "server_load_amplification": served / total_requests,
        "effective_load_amplification": (copies + retransmitted) / max(admitted, 1),
    }


EXPERIMENT = Experiment(
    key="A5",
    title="A5 scalability",
    point=point,
    grid=grid(),
    seeds=(0, 1),
    quick_grid=grid(client_counts=(1, 4), num_requests=15),
    quick_seeds=(0,),
    tables=(
        Table(
            "Scalability with concurrent clients (deadline 160 ms, Pc = 0.9)",
            (
                ("policy", "policy"),
                ("clients", "num_clients"),
                ("failure prob", "failure_probability"),
                ("mean redundancy", "mean_redundancy"),
                ("mean response ms", "mean_response_ms"),
                ("replica msgs/request", "server_load_amplification"),
                ("offered copies/admitted", "effective_load_amplification"),
            ),
        ),
    ),
)
