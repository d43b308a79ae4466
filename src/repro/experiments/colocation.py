"""Ablation A12 — routing around co-location interference.

The paper's system model allows "a machine may host multiple replicas"
(§3) and lists host load as a prime source of timing faults.  Here two
services share hosts: the measured service (`analytics`, replicated on
all four hosts) and a noisy neighbour (`batch`, co-located on hosts 1–2
only) hammered by an open-loop client.  CPU contention (a coupled load
model) slows the analytics replicas on the shared hosts.

The question: does the timing fault handler's measurement loop *find*
the quiet hosts?  We compare the paper's dynamic policy against a
load-blind random policy of the same redundancy.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.baselines import AllReplicasPolicy
from ..core.qos import QoSSpec
from ..engine import EngineConfig
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..orb.orb import Stub
from ..replica.load import CoupledLoad, ServiceProfile
from ..sim.random import Constant, Exponential, Normal
from ..workload.client import OpenLoopClient
from ..workload.scenarios import (
    IntegerServant,
    Scenario,
    ScenarioConfig,
    make_interface,
)
from .harness import make_policy, summary_metrics
from .registry import Experiment, Table, cartesian

__all__ = ["NOISY_HOSTS", "POLICIES", "grid", "point", "EXPERIMENT"]

NOISY_HOSTS = ("replica-1", "replica-2")

POLICIES = ("dynamic (paper)", "random-2 (load-blind)")
DEADLINE_MS, MIN_PROBABILITY = 160.0, 0.9


def _build_scenario(seed: int) -> Scenario:
    activity_alpha = 2.0

    config = ScenarioConfig(
        seed=seed,
        num_replicas=4,
        service="analytics",
        service_mean_ms=80.0,
        service_sigma_ms=20.0,
    )
    scenario = Scenario(config)
    activity = scenario.manager.host_activity

    # Retrofit coupled load onto the analytics replicas: their profiles
    # were built by the Scenario; replace the load models in place.
    for host in config.replica_hosts():
        handler = scenario.manager.handler_on(host, service="analytics")
        handler.app.profile.load = CoupledLoad(activity, host, alpha=activity_alpha)

    # Deploy the noisy neighbour on the first two hosts.
    batch_interface = make_interface("batch", "crunch")
    scenario.manager.deploy(
        "batch",
        lambda: IntegerServant(batch_interface),
        lambda host: ServiceProfile(
            default=Normal(60.0, 15.0),
            load=CoupledLoad(activity, host, alpha=activity_alpha),
        ),
        list(NOISY_HOSTS),
    )

    # An open-loop client hammers the batch service through a plain
    # broadcast handler (its QoS is irrelevant; its load is the point).
    scenario.lan.add_host("batch-client")
    batch_handler = TimingFaultClientHandler(
        sim=scenario.sim,
        host="batch-client",
        transport=scenario.transport,
        group_comm=scenario.group_comm,
        interface=batch_interface,
        qos=QoSSpec("batch", 5_000.0, 0.0),
        config=EngineConfig(policy=AllReplicasPolicy(), response_timeout_factor=2.0),
        marshalling=scenario.marshalling,
        rng=scenario.streams.stream("batch-client.policy"),
    )
    scenario.gateway_for("batch-client").load_handler(batch_handler)
    OpenLoopClient(
        sim=scenario.sim,
        stub=Stub(batch_interface, batch_handler),
        host="batch-client",
        streams=scenario.streams,
        interarrival=Exponential(120.0),
        method="crunch",
        num_requests=300,
    )
    return scenario


def grid(num_requests: int = 40) -> Tuple[dict, ...]:
    """The dynamic policy vs. load-blind random at equal redundancy."""
    return cartesian(policy=POLICIES, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One analytics-client run beside the noisy neighbour.

    ``noisy_host_share`` is the fraction of winning replies that came
    from the hosts the batch service shares.
    """
    scenario = _build_scenario(seed)
    client = scenario.add_client(
        "analytics-client",
        QoSSpec("analytics", DEADLINE_MS, MIN_PROBABILITY),
        policy=make_policy(params["policy"]),
        num_requests=params["num_requests"],
        think_time=Constant(400.0),
    )
    scenario.run_to_completion()
    winners = [o.replica for o in client.outcomes if o.replica]
    return {
        **summary_metrics(client.summary()),
        "noisy_host_share": (
            sum(1 for replica in winners if replica in NOISY_HOSTS)
            / max(1, len(winners))
        ),
    }


EXPERIMENT = Experiment(
    key="A12",
    title="A12 co-location interference",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(num_requests=25),
    quick_seeds=(0,),
    tables=(
        Table(
            "Co-location interference: batch jobs share hosts 1-2 "
            "(deadline 160 ms, Pc = 0.9)",
            (
                ("policy", "policy"),
                ("failure prob", "failure_probability"),
                ("noisy-host replies", "noisy_host_share"),
                ("redundancy", "mean_redundancy"),
            ),
        ),
    ),
)
