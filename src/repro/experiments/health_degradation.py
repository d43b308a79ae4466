"""Ablation A15 — the health subsystem under persistent degradation.

A five-replica deployment serves one closed-loop client while one replica
silently drops every message for a two-second window (a persistent
degradation, not a crash: the failure detector never fires).  Without the
health subsystem the selection model starves — the degraded replica's
window never refreshes, its stale-good F(t) keeps winning the tie-break,
and every in-window request burns the full response timeout.  With the
health subsystem the replica is suspected, quarantined, routed around,
and re-admitted through probation probes once the window lifts.

The table reports the timely fraction inside the degradation window, the
overall timely fraction, and the number of quarantine transitions.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.selection import DynamicSelectionPolicy
from ..faultinject import DegradationFault, FaultSchedule
from ..health import HealthConfig, HealthState
from ..sim.random import Constant
from ..workload.ministack import MiniStack
from .harness import window_timeliness
from .registry import Experiment, Table, cartesian

__all__ = ["VARIANTS", "grid", "point", "EXPERIMENT"]

#: Table label → whether the client runs the health subsystem.
VARIANTS = {"health": True, "no-health": False}

REPLICAS = tuple(f"s-{i + 1}" for i in range(5))
WINDOW_START, WINDOW_END = 500.0, 2500.0
#: Seed of the wire's injection draws (a total omission never draws).
WIRE_SEED = 11

HEALTH = HealthConfig(backoff_initial_ms=400.0)


def grid(num_requests: int = 150) -> Tuple[dict, ...]:
    """The health-enabled client, then the no-health baseline."""
    return cartesian(variant=VARIANTS, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One closed-loop run through the two-second degradation window."""
    schedule = FaultSchedule(
        degradations=(
            DegradationFault(
                host=REPLICAS[0],
                start_ms=WINDOW_START,
                end_ms=WINDOW_END,
                omission_probability=1.0,
            ),
        )
    )
    stack = MiniStack(seed=seed, faulty_wire=True, wire_seed=WIRE_SEED)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    client = stack.add_client(
        "client-1",
        deadline_ms=100.0,
        min_probability=0.9,
        policy=DynamicSelectionPolicy(crash_tolerance=0, fixed_overhead_ms=0.0),
        response_timeout_factor=3.0,
        probe_interval_ms=200.0,
        **({"health_config": HEALTH} if VARIANTS[params["variant"]] else {}),
    )
    stack.faults.apply(schedule)
    sim = stack.sim
    outcomes = []

    def load():
        for i in range(params["num_requests"]):
            t0 = sim.now
            event = stack.invoke("client-1", i)
            yield event
            outcomes.append((t0, event.value))
            yield sim.timeout(5.0)

    sim.spawn(load(), name="load.client-1")
    sim.run()
    sim.run(until=6000.0)  # let re-admission probes finish

    transitions = 0
    if client.health is not None:
        transitions = sum(
            1
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
        )
    return {
        **window_timeliness(outcomes, WINDOW_START, WINDOW_END),
        "quarantine_transitions": transitions,
    }


EXPERIMENT = Experiment(
    key="A15",
    title="A15 health under degradation",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(),
    quick_seeds=(0,),
    tables=(
        Table(
            "Persistent degradation: s-1 drops all traffic in [500, 2500) ms "
            "(deadline 100 ms, Pc = 0.9)",
            (
                ("variant", "variant"),
                ("window timely", "window_timely_fraction"),
                ("overall timely", "overall_timely_fraction"),
                ("quarantines", "quarantine_transitions"),
            ),
        ),
    ),
)
