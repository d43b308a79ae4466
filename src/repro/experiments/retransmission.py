"""Ablation A13 — concurrent redundancy vs. client retransmission (§1).

The paper dismisses the related work's recovery story in one sentence:
"such a simple retransmission strategy, however, may not be suitable for
clients with specific time constraints."  This ablation measures it.

Both strategies face the same workload — seven replicas, a mid-run crash
of the best replica — across a deadline sweep.  The retransmitting client
routes to the single best replica and retries after half the deadline
(up to 2 retries); the paper's client hedges concurrently via Algorithm 1.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..gateway.handlers.retransmit import RetransmittingClientHandler
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["DEADLINES_MS", "STRATEGIES", "grid", "point", "EXPERIMENT"]

DEADLINES_MS = (140.0, 180.0, 240.0)
#: Table label → client handler class.
STRATEGIES = {
    "dynamic (paper)": TimingFaultClientHandler,
    "retransmit (related work)": RetransmittingClientHandler,
}
MIN_PROBABILITY = 0.9
CRASH_AT_MS = 8_000.0


def grid(
    deadlines_ms: Sequence[float] = DEADLINES_MS, num_requests: int = 40
) -> Tuple[dict, ...]:
    """Both strategies across the deadline sweep."""
    return cartesian(
        strategy=STRATEGIES, deadline_ms=deadlines_ms, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One strategy at one deadline, with the best replica crashing."""
    scenario, (client,) = run_clients(
        ScenarioConfig(seed=seed, response_timeout_factor=4.0),
        1,
        params["deadline_ms"],
        MIN_PROBABILITY,
        params["num_requests"],
        crash_at_ms=CRASH_AT_MS,
        handler_cls=STRATEGIES[params["strategy"]],
    )
    extra = getattr(scenario.handlers["client-1"], "retransmissions", 0)
    return {
        **summary_metrics(client.summary()),
        "messages_per_request": (
            (sum(o.redundancy for o in client.outcomes) + extra)
            / len(client.outcomes)
        ),
    }


EXPERIMENT = Experiment(
    key="A13",
    title="A13 redundancy vs retransmission",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(deadlines_ms=(140.0,), num_requests=25),
    quick_seeds=(0,),
    tables=(
        Table(
            "Concurrent redundancy vs. retransmission "
            "(best replica crashes at t=8 s; Pc = 0.9)",
            (
                ("strategy", "strategy"),
                ("deadline ms", "deadline_ms"),
                ("failure prob", "failure_probability"),
                ("timeout frac", "timeout_fraction"),
                ("msgs/request", "messages_per_request"),
            ),
        ),
    ),
)
