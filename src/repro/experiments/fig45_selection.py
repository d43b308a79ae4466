"""Figures 4 and 5 — redundancy level and observed timing failures.

The paper's headline experiment (§6): two clients, seven replicas, fifty
requests per run, one-second think time, service delay ~ Normal(100 ms,
50 ms).  Client 1 is fixed at (200 ms, Pc ≥ 0).  Client 2 sweeps its
deadline over 100–200 ms for requested probabilities 0.9, 0.5 and 0.

Reproduced claims:

* Fig. 4 — the average number of replicas selected for client 2 falls as
  the deadline grows and as the requested probability falls, bottoming
  out at 2 (Algorithm 1's minimum);
* Fig. 5 — the observed timing-failure probability stays below the
  1 − Pc the client tolerates (paper: max 0.08 for Pc=0.9, ≈0.32/0.36
  for Pc=0.5/0).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .harness import run_two_client_experiment, summary_metrics
from .registry import Experiment, Table

__all__ = ["DEADLINES_MS", "PROBABILITIES", "grid", "point", "EXPERIMENT"]

DEADLINES_MS = (100.0, 120.0, 140.0, 160.0, 180.0, 200.0)
PROBABILITIES = (0.9, 0.5, 0.0)


def grid(
    deadlines_ms: Sequence[float] = DEADLINES_MS, num_requests: int = 50
) -> Tuple[dict, ...]:
    """The (Pc, deadline) grid; ``tolerated`` is the 1 − Pc the client accepts."""
    return tuple(
        {
            "min_probability": min_probability,
            "deadline_ms": deadline,
            "tolerated_failure_probability": 1.0 - min_probability,
            "num_requests": num_requests,
        }
        for min_probability in PROBABILITIES
        for deadline in deadlines_ms
    )


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One two-client run; client 2's redundancy, failures and response time."""
    result = run_two_client_experiment(
        deadline_ms=params["deadline_ms"],
        min_probability=params["min_probability"],
        seed=seed,
        num_requests=params["num_requests"],
    )
    return summary_metrics(result.client2)


EXPERIMENT = Experiment(
    key="fig45",
    title="Figures 4+5 (selection & failures)",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(),
    quick_seeds=(0,),
    tables=(
        Table(
            "Figure 4: average number of replicas selected (client 2)",
            (
                ("requested Pc", "min_probability"),
                ("deadline ms", "deadline_ms"),
                ("avg replicas", "mean_redundancy"),
            ),
        ),
        Table(
            "Figure 5: observed probability of timing failures (client 2)",
            (
                ("requested Pc", "min_probability"),
                ("deadline ms", "deadline_ms"),
                ("observed failures", "failure_probability"),
                ("tolerated", "tolerated_failure_probability"),
            ),
        ),
    ),
)
