"""Ablation A16 — flash-crowd collapse vs. the overload governor.

Algorithm 1's hedging is self-amplifying under load: queues build, every
``W_i`` pmf widens, every ``F_{R_i}(t)`` drops below ``Pc``, the
algorithm falls back to selecting *all* replicas, and the extra copies
build the queues further — the metastable feedback loop the paper (two
clients on an idle LAN) never encounters.

The sweep drives an increasing number of closed-loop clients with a
short think time at a five-replica deployment, once with the plain
dynamic policy and once with the overload subsystem enabled (load
tracker + redundancy governor + deadline-based admission control).  The
headline comparison (``--json BENCH_overload.json`` exports it):

* **ungoverned** — the in-deadline fraction collapses as clients are
  added (past the knee, more than half of all requests miss);
* **governed** — admitted requests keep a high in-deadline fraction
  while a bounded, metered fraction of requests is shed fail-fast.

The governed stack pairs the overload subsystem with the A11
queue-scaled estimator so the admission controller's ``F_{R_m0}(t - δ)``
tracks *live* queue depth rather than the historic window — otherwise
stale pmfs stay optimistic during a burst and doomed requests are
admitted.  The estimator is not the fix on its own: queue-scaling
without the governor still falls into the select-all feedback loop and
collapses past the knee (the confound check in the A16 tests).

Every row also prints the closed-loop capacity bound: ``N`` clients
sending ``k`` copies of ``E[S]`` ms each to ``m`` replicas, thinking
``Z`` ms between requests, cannot see a mean response below
``N·k·E[S]/m − Z`` (the interactive response-time law at full
utilisation).  ``utilisation`` is measured, from the replicas' own busy
time over the run, not taken from that formula.  A row at utilisation
≥ 0.95 must sit within 5 % above its bound (``--check-digests`` holds
the full grid to it).  A bound past the response timeout is
``censored``: a timed-out request enters the mean at its timeout.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from ..core.estimator import QueueScaledEstimator
from ..sim.random import Exponential, Normal
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients
from .registry import Cell, Experiment, Row, Table, cartesian, mean_rows

__all__ = [
    "VARIANTS",
    "default_overload_config",
    "grid",
    "point",
    "rows",
    "bound_violations",
    "EXPERIMENT",
]

#: Table label → whether the overload subsystem (and queue-scaled F) is on.
VARIANTS = {"ungoverned": False, "governed": True}
NUM_REPLICAS = 5
DEADLINE_MS, MIN_PROBABILITY = 60.0, 0.9
SERVICE_MEAN_MS = 8.0
SERVICE_SIGMA_MS = 2.0
THINK_MS = 5.0
RESPONSE_TIMEOUT_FACTOR = 3.0
#: A row at or above this measured utilisation is held to its bound ...
SATURATED = 0.95
#: ... within this factor above it.
BOUND_SLACK = 1.05


def default_overload_config() -> bool:
    """The governed variant's ``overload_config``: the subsystem switched on.

    Its thresholds are the constants of :mod:`repro.overload`, tuned to
    this sweep's knee.
    """
    return True


def grid(
    client_counts: Sequence[int] = (2, 8, 16, 24), num_requests: int = 40
) -> Tuple[dict, ...]:
    """The ungoverned stack, then the governed one, across client counts."""
    return cartesian(
        variant=VARIANTS, num_clients=client_counts, num_requests=[num_requests]
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One flash-crowd run.

    ``timely_fraction`` is over every *issued* request (sheds count as
    not-in-deadline — honesty against gaming the headline);
    ``admitted_timely_fraction``, redundancy and response time are over
    *admitted* requests only, admitted-weighted across the clients.
    """
    governed = VARIANTS[params["variant"]]
    scenario, clients = run_clients(
        ScenarioConfig(
            seed=seed,
            num_replicas=NUM_REPLICAS,
            service_mean_ms=SERVICE_MEAN_MS,
            service_sigma_ms=SERVICE_SIGMA_MS,
            service_distribution_factory=lambda host: Normal(
                SERVICE_MEAN_MS, SERVICE_SIGMA_MS
            ),
            response_timeout_factor=RESPONSE_TIMEOUT_FACTOR,
            keep_samples=False,
            overload_config=governed,
        ),
        params["num_clients"],
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        think_time=Exponential(THINK_MS),
        # The governed stack needs queue-scaled F (see module docstring);
        # the ungoverned baseline is the paper's stack, untouched.
        handler_kwargs=(
            {"estimator_factory": QueueScaledEstimator} if governed else {}
        ),
    )
    scenario.audit_lifecycle()
    summaries = [c.summary() for c in clients]
    issued = sum(s.requests for s in summaries)
    sheds = sum(s.sheds for s in summaries)
    admitted = issued - sheds
    admitted_timely = sum(s.admitted - s.timing_failures for s in summaries)
    busy_ms = sum(
        server.busy_ms
        for servers in scenario.replicas.values()
        for server in servers
    )
    return {
        "timely_fraction": admitted_timely / issued,
        "admitted_timely_fraction": admitted_timely / max(admitted, 1),
        "shed_fraction": sheds / issued,
        "mean_redundancy": (
            sum(s.mean_redundancy * s.admitted for s in summaries)
            / max(admitted, 1)
        ),
        "mean_response_ms": (
            sum(s.mean_response_ms * s.admitted for s in summaries)
            / max(admitted, 1)
        ),
        # The run ends when the last copy has been served.
        "utilisation": busy_ms / (NUM_REPLICAS * scenario.sim.now),
    }


def rows(cells: Sequence[Cell]) -> List[Row]:
    """The mean rows, each with its bound ``N·k·E[S]/m − Z`` from its own
    mean redundancy ``k`` and its response over that bound (``censored``
    past the timeout)."""
    table = mean_rows(cells)
    for row in table:
        bound = (
            row["num_clients"] * row["mean_redundancy"] * SERVICE_MEAN_MS
            / NUM_REPLICAS - THINK_MS
        )
        ratio: Union[float, str] = row["mean_response_ms"] / bound
        if bound >= RESPONSE_TIMEOUT_FACTOR * DEADLINE_MS:
            ratio = "censored"
        row["bound_ms"] = bound
        row["response_over_bound"] = ratio
    return table


def bound_violations(table: Sequence[Row]) -> List[str]:
    """One line per saturated, uncensored row outside ``[1, 1.05]`` of
    its bound."""
    return [
        f"{row['variant']} {row['num_clients']} clients: response / bound "
        f"{row['response_over_bound']:.3f} at utilisation {row['utilisation']:.3f}"
        for row in table
        if row["utilisation"] >= SATURATED
        and row["response_over_bound"] != "censored"
        and not 1.0 <= row["response_over_bound"] <= BOUND_SLACK
    ]


EXPERIMENT = Experiment(
    key="A16",
    title="A16 overload collapse",
    point=point,
    grid=grid(),
    seeds=(0, 1),
    quick_grid=grid(client_counts=(2, 8), num_requests=20),
    quick_seeds=(0,),
    tables=(
        Table(
            f"Flash crowd: closed-loop clients vs {NUM_REPLICAS} replicas "
            f"(deadline {DEADLINE_MS:.0f} ms, service "
            f"~N({SERVICE_MEAN_MS:.0f}, {SERVICE_SIGMA_MS:.0f}) ms, "
            f"think {THINK_MS:.0f} ms)",
            (
                ("variant", "variant"),
                ("clients", "num_clients"),
                ("timely", "timely_fraction"),
                ("admitted timely", "admitted_timely_fraction"),
                ("shed", "shed_fraction"),
                ("redundancy", "mean_redundancy"),
                ("response ms", "mean_response_ms"),
                ("utilisation", "utilisation"),
                ("bound ms", "bound_ms"),
                ("response / bound", "response_over_bound"),
            ),
        ),
    ),
    rows=rows,
    check=bound_violations,
)
