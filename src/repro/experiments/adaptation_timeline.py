"""Ablation A14 — the adaptation transient around a crash.

Figures 4/5 of the paper report run-level averages; this harness looks
*inside* a run: the timeline of timely/late replies around a crash of the
best replica, bucketed into time windows.  The interesting quantity is
the transient — the window between the crash and the membership eviction
— where the paper's concurrent redundancy keeps serving while a
single-replica policy drops requests.

The output is a time series (one row per bucket), i.e. the data behind a
figure the paper did not include but whose §5.3.2 argument predicts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..sim.random import Constant
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients
from .registry import Cell, Experiment, Row, Table, cartesian

__all__ = ["POLICIES", "point", "timeline_rows", "EXPERIMENT"]

POLICIES = ("dynamic (paper)", "single-fastest")
DEADLINE_MS, MIN_PROBABILITY = 170.0, 0.9
CRASH_AT_MS = 10_000.0
BUCKET_MS = 2_500.0
HORIZON_MS = 30_000.0
THINK_MS = 250.0


def point(params: dict, seed: int, repetition: int) -> Dict[str, list]:
    """One run; the reply timeline as ``(start, end, n, failed, timed out)``."""
    # A deliberately sluggish failure detector (~2 s to evict) widens the
    # window during which selection must survive on redundancy alone —
    # the regime §5.3.2's hedge exists for.
    _scenario, (client,) = run_clients(
        ScenarioConfig(
            seed=seed,
            response_timeout_factor=3.0,
            fd_poll_interval_ms=1000.0,
        ),
        1,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        policy=params["policy"],
        crash_at_ms=CRASH_AT_MS,
        think_time=Constant(THINK_MS),
    )

    # Each request completes at its t4: a reply's arrival or the expiry.
    events = [(o.t4_ms, not o.timely, o.timed_out) for o in client.outcomes]

    buckets = []
    start = 0.0
    while start < HORIZON_MS:
        end = start + BUCKET_MS
        members = [e for e in events if start <= e[0] < end]
        buckets.append(
            [
                start,
                end,
                len(members),
                sum(1 for e in members if e[1]),
                sum(1 for e in members if e[2]),
            ]
        )
        start = end
    return {"buckets": buckets}


def timeline_rows(cells: Sequence[Cell]) -> List[Row]:
    """One row per non-empty time bucket of each policy's (single) run."""
    rows = []
    for params, (run,) in cells:
        for start_ms, end_ms, requests, failures, timeouts in run["buckets"]:
            if requests:
                rows.append(
                    {
                        "policy": params["policy"],
                        "start_ms": start_ms,
                        "end_ms": end_ms,
                        "window": f"{start_ms / 1000:.1f}-{end_ms / 1000:.1f}s",
                        "requests": requests,
                        "failures": failures,
                        "timeouts": timeouts,
                        "failure_rate": failures / requests,
                    }
                )
    return rows


EXPERIMENT = Experiment(
    key="A14",
    title="A14 adaptation timeline",
    point=point,
    grid=cartesian(policy=POLICIES, num_requests=[100]),
    seeds=(0,),
    quick_grid=cartesian(policy=POLICIES, num_requests=[60]),
    quick_seeds=(0,),
    rows=timeline_rows,
    tables=(
        Table(
            "Adaptation timeline around a crash of the best replica at t=10 s "
            "(deadline 170 ms, Pc = 0.9)",
            (
                ("policy", "policy"),
                ("window", "window"),
                ("requests", "requests"),
                ("failures", "failures"),
                ("timeouts", "timeouts"),
                ("rate", "failure_rate"),
            ),
        ),
    ),
)
