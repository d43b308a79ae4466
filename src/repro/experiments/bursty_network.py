"""Ablation A8 — gateway-delay sliding window under bursty LAN traffic.

The paper keeps only the *most recent* gateway-to-gateway delay because
"the traffic in a LAN does not frequently fluctuate ... For environments
in which this observation is not true, it would be simple to extend our
approach to record the value of the gateway-to-gateway delay over a
sliding window as we do above for the service time and queuing delay"
(§5.3.1).

This experiment builds that other environment: the LAN jitter is
Markov-modulated with occasional multi-request bursts adding tens of
milliseconds.  We compare the paper's last-value ``T_i`` against the
windowed ``T_i`` distribution under a deadline with little slack.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..workload.scenarios import ScenarioConfig
from .harness import run_clients, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["VARIANTS", "grid", "point", "EXPERIMENT"]

#: Table label → gateway-delay window size (``None``: the paper's last value).
VARIANTS = {"last value (paper base)": None, "window of 5": 5, "window of 10": 10}
DEADLINE_MS, MIN_PROBABILITY = 150.0, 0.9


def grid(num_requests: int = 50) -> Tuple[dict, ...]:
    """The paper's last-value T_i, then gateway-delay windows of 5 and 10."""
    return cartesian(variant=VARIANTS, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One single-client run on the bursty LAN."""
    window = VARIANTS[params["variant"]]
    _scenario, (client,) = run_clients(
        ScenarioConfig(seed=seed, num_replicas=7, bursty_network=True),
        1,
        DEADLINE_MS,
        MIN_PROBABILITY,
        params["num_requests"],
        handler_kwargs={} if window is None else {"gateway_window_size": window},
    )
    return summary_metrics(client.summary())


EXPERIMENT = Experiment(
    key="A8",
    title="A8 bursty network",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2, 3),
    quick_grid=grid(num_requests=25),
    quick_seeds=(0,),
    tables=(
        Table(
            "Gateway-delay representation under bursty LAN traffic "
            "(deadline 150 ms, Pc = 0.9)",
            (
                ("T_i representation", "variant"),
                ("failure prob", "failure_probability"),
                ("mean redundancy", "mean_redundancy"),
            ),
        ),
    ),
)
