"""Ablation A6 — active probing of stale performance data (paper §8).

The paper's final extension: "our work can also be extended to use active
probes [5] when a replica's performance information is obsolete."

The workload that makes staleness bite: a sole client with long idle gaps
(5 s think time) on a LAN whose delay to the replicas *toggles* between a
fast and a congested regime while the client is idle.  Without probes,
the first request after each toggle is scheduled against a 5-second-old
``T_i``; with probes (staleness threshold 1 s), the repository is
refreshed during the gap and selection hedges correctly.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.qos import QoSSpec
from ..net.lan import LinkProfile
from ..sim.random import Constant, Normal
from ..workload.scenarios import Scenario, ScenarioConfig
from .harness import summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["VARIANTS", "grid", "point", "EXPERIMENT"]

#: Table label → handler options (probing off, then on).
VARIANTS = {
    "without probes": {},
    "with active probes": {"probe_staleness_ms": 1_000.0, "probe_interval_ms": 500.0},
}
DEADLINE_MS, MIN_PROBABILITY = 165.0, 0.9

# One-way extra delay during the congested regime, ms.  Two-way this eats
# most of the slack between the 100 ms mean service time and the deadline.
CONGESTED_EXTRA_MS = 35.0
TOGGLE_PERIOD_MS = 10_000.0


def _install_toggling_network(scenario: Scenario, client_host: str) -> None:
    """Flip client<->replica links between fast and congested regimes."""
    fast = scenario.lan.default_profile
    congested = LinkProfile(
        stack_ms=fast.stack_ms + CONGESTED_EXTRA_MS,
        per_kb_ms=fast.per_kb_ms,
        per_member_ms=fast.per_member_ms,
        jitter=Normal(3.0, 1.5),
    )

    def set_profiles(profile: LinkProfile) -> None:
        for replica in scenario.config.replica_hosts():
            scenario.lan.set_link_profile(client_host, replica, profile)
            scenario.lan.set_link_profile(replica, client_host, profile)

    def toggle(congest: bool) -> None:
        set_profiles(congested if congest else fast)
        scenario.sim.call_in(
            TOGGLE_PERIOD_MS, lambda: toggle(not congest), daemon=True
        )

    # First toggle lands mid-first-idle-gap; the regime then alternates.
    scenario.sim.call_in(TOGGLE_PERIOD_MS / 2, lambda: toggle(True), daemon=True)


def grid(num_requests: int = 40) -> Tuple[dict, ...]:
    """Probing off, then on, on the toggling-network workload."""
    return cartesian(variant=VARIANTS, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One idle-client run on the toggling LAN, probing on or off."""
    scenario = Scenario(ScenarioConfig(seed=seed, num_replicas=7))
    client = scenario.add_client(
        "client-1",
        QoSSpec(scenario.config.service, DEADLINE_MS, MIN_PROBABILITY),
        num_requests=params["num_requests"],
        think_time=Constant(5_000.0),  # long idle gaps
        handler_kwargs=VARIANTS[params["variant"]],
    )
    _install_toggling_network(scenario, "client-1")
    scenario.run_to_completion()
    return {
        **summary_metrics(client.summary()),
        "probes_sent": scenario.handlers["client-1"].probes_sent,
    }


EXPERIMENT = Experiment(
    key="A6",
    title="A6 active probing",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(num_requests=20),
    quick_seeds=(0,),
    tables=(
        Table(
            "Active probing of stale records (idle client, toggling LAN, "
            "deadline 165 ms, Pc = 0.9)",
            (
                ("variant", "variant"),
                ("failure prob", "failure_probability"),
                ("mean redundancy", "mean_redundancy"),
                ("probes sent", "probes_sent"),
            ),
        ),
    ),
)
