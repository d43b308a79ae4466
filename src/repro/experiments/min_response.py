"""§6 floor measurement — minimum achievable response time.

"For a minimum-sized request having negligible service time, the minimum
value we achieved for the response time ... was about 3.5 milliseconds."

We run one client against one replica whose service time is exactly zero
and report the minimum observed ``tr``.  The floor in our stack comes from
the same places as in AQuA: marshalling at both gateways, the protocol
stack/LAN on the request and reply paths, and the selection charge.
"""

from __future__ import annotations

from typing import Dict

from ..core.qos import QoSSpec
from ..sim.random import Constant
from ..workload.scenarios import Scenario, ScenarioConfig
from .registry import Experiment, Table

__all__ = ["PAPER_FLOOR_MS", "point", "EXPERIMENT"]

PAPER_FLOOR_MS = 3.5


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """Measure the response-time floor with zero service time."""
    config = ScenarioConfig(
        seed=seed,
        num_replicas=1,
        request_bytes=1,
        reply_bytes=1,
        service_distribution_factory=lambda host: Constant(0.0),
    )
    scenario = Scenario(config)
    client = scenario.add_client(
        "client-1",
        QoSSpec(config.service, deadline_ms=100.0, min_probability=0.0),
        num_requests=params["requests"],
        think_time=Constant(10.0),
    )
    scenario.run_to_completion()
    times = [o.response_time_ms for o in client.outcomes]
    return {
        "min_response_ms": min(times),
        "mean_response_ms": sum(times) / len(times),
    }


EXPERIMENT = Experiment(
    key="min_response",
    title="Minimum response time",
    point=point,
    grid=({"requests": 100, "paper_floor_ms": PAPER_FLOOR_MS},),
    seeds=(0,),
    quick_grid=({"requests": 50, "paper_floor_ms": PAPER_FLOOR_MS},),
    quick_seeds=(0,),
    tables=(
        Table(
            "Minimum response time (minimum-sized request, zero service time)",
            (
                ("requests", "requests"),
                ("min tr (ms)", "min_response_ms"),
                ("mean tr (ms)", "mean_response_ms"),
                ("paper floor (ms)", "paper_floor_ms"),
            ),
        ),
    ),
)
