"""Ablation A7 — per-method performance classification (paper §8).

The paper assumes "the servers export a single method interface" and
sketches the extension: "modify the information repository to classify
performance data based on the method interfaces.  The selection algorithm
can then use the performance information appropriate to the method
invoked."

We build the case that motivates it: *specialist replicas*.  Half the
replicas serve ``process`` fast (40 ms) but ``analyze`` slowly (220 ms) —
say they hold the index in memory; the other half are the mirror image.
A client alternates the two methods under a 150 ms deadline.  The pooled
model mixes both methods' samples per replica, so every replica looks
mediocre and selection cannot tell the specialists apart; the classified
model routes each method to its specialists.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..gateway.handlers.timing_fault import method_classifier
from ..replica.load import ServiceProfile
from ..sim.random import Normal
from ..workload.scenarios import ScenarioConfig
from .harness import run_clients
from .registry import Experiment, Table, cartesian

__all__ = ["VARIANTS", "grid", "point", "EXPERIMENT"]

FAST = Normal(40.0, 10.0)
SLOW = Normal(220.0, 30.0)
#: Table label → handler options (the pooled paper model, then per-method).
VARIANTS = {
    "pooled (paper base)": {},
    "classified (per-method)": {"classifier": method_classifier},
}
DEADLINE_MS, MIN_PROBABILITY = 150.0, 0.9


def _specialist_profile(host: str) -> ServiceProfile:
    index = int(host.rsplit("-", 1)[1])
    if index % 2 == 1:
        # Odd replicas: process-specialists.
        return ServiceProfile(default=FAST, per_method={"analyze": SLOW})
    return ServiceProfile(default=SLOW, per_method={"analyze": FAST})


def grid(num_requests: int = 60) -> Tuple[dict, ...]:
    """The pooled (paper base) model, then the per-method one."""
    return cartesian(variant=VARIANTS, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One mixed-method run; failures and redundancy split by method."""
    _scenario, (client,) = run_clients(
        ScenarioConfig(
            seed=seed,
            num_replicas=6,  # three specialists per method
            extra_methods={"analyze": FAST},  # signature only; profiles rule
            profile_factory=_specialist_profile,
        ),
        1,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        method_chooser=lambda i: "analyze" if i % 2 else "process",
        handler_kwargs=VARIANTS[params["variant"]],
    )
    outcomes = client.outcomes
    heavy = outcomes[1::2]  # odd indices invoked "analyze"
    cheap = outcomes[0::2]
    return {
        "failure_probability": (
            sum(1 for o in outcomes if not o.timely) / len(outcomes)
        ),
        "heavy_failure_probability": (
            sum(1 for o in heavy if not o.timely) / len(heavy)
        ),
        "cheap_redundancy": sum(o.redundancy for o in cheap) / len(cheap),
        "heavy_redundancy": sum(o.redundancy for o in heavy) / len(heavy),
    }


EXPERIMENT = Experiment(
    key="A7",
    title="A7 method classification",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(num_requests=30),
    quick_seeds=(0,),
    tables=(
        Table(
            "Per-method classification (specialist replicas, "
            "deadline 150 ms, Pc = 0.9)",
            (
                ("model", "variant"),
                ("overall failures", "failure_probability"),
                ("analyze-call failures", "heavy_failure_probability"),
                ("process redundancy", "cheap_redundancy"),
                ("analyze redundancy", "heavy_redundancy"),
            ),
        ),
    ),
)
