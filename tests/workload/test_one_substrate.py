"""There is one deployment wiring and one host-fault plane.

``Scenario`` and ``MiniStack`` are presets of ``workload.ministack
.Deployment``: handed the same values they must be the same simulation,
event for event, and a crash scripted through either surface must be the
same crash.  The structural guard at the bottom keeps a second wiring
from growing back.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Tuple

import pytest

from repro.core.qos import QoSSpec
from repro.core.selection import DynamicSelectionPolicy
from repro.faultinject import CrashRestartFault, FaultSchedule
from repro.sim.random import Constant
from repro.workload.client import ClosedLoopClient
from repro.workload.ministack import METHOD, SERVICE, MiniStack, Wiring
from repro.workload.scenarios import Scenario, ScenarioConfig

HOSTS = 3
REQUESTS = 12
DEADLINE_MS, MIN_PROBABILITY = 40.0, 0.9
Crash = Optional[Tuple[str, float, Optional[float]]]


class BareScenario(Scenario):
    """A Scenario handed the bare preset instead of the §6 testbed's."""

    def _wiring(self) -> Wiring:
        return Wiring()


def _policy() -> DynamicSelectionPolicy:
    # A fixed overhead keeps the deadline compensation off the host's
    # wall clock, so two runs can be compared bit for bit.
    return DynamicSelectionPolicy(fixed_overhead_ms=0.0)


def _watch_views(deployment) -> List[tuple]:
    views: List[tuple] = []
    deployment.group_comm.on_view_change(
        SERVICE,
        "observer",
        lambda view: views.append((deployment.sim.now, view.view_id, view.members)),
    )
    return views


def _record(deployment, client: ClosedLoopClient, views: List[tuple]) -> dict:
    deployment.sim.run()
    assert client.done
    return {
        "events": deployment.sim.processed_events,
        "end_ms": deployment.sim.now,
        "views": views,
        "outcomes": [
            (o.response_time_ms, o.replica, o.redundancy, o.timely, o.timed_out)
            for o in client.outcomes
        ],
    }


def _through_scenario(seed: int, crash: Crash) -> dict:
    scenario = BareScenario(
        ScenarioConfig(
            seed=seed,
            num_replicas=HOSTS,
            service_distribution_factory=lambda host: Constant(10.0),
            fd_poll_interval_ms=10.0,
        )
    )
    views = _watch_views(scenario)
    client = scenario.add_client(
        "client-1",
        QoSSpec(SERVICE, DEADLINE_MS, MIN_PROBABILITY),
        policy=_policy(),
        num_requests=REQUESTS,
        think_time=Constant(50.0),
        handler_kwargs={"selection_charge_ms": 0.0},  # MiniStack's free selection
    )
    if crash is not None:
        scenario.schedule_crash(*crash)
    record = _record(scenario, client, views)
    scenario.audit_lifecycle()
    return record


def _through_ministack(seed: int, crash: Crash) -> dict:
    stack = MiniStack(seed=seed)
    for index in range(HOSTS):
        stack.add_server(f"replica-{index + 1}")
    views = _watch_views(stack)
    stack.add_client(
        "client-1", DEADLINE_MS, MIN_PROBABILITY, policy=_policy()
    )
    client = ClosedLoopClient(
        sim=stack.sim,
        stub=stack.stubs["client-1"],
        host="client-1",
        streams=stack.streams,
        method=METHOD,
        num_requests=REQUESTS,
        think_time=Constant(50.0),
    )
    if crash is not None:
        stack.faults.apply(
            FaultSchedule(crashes=(CrashRestartFault(*crash),))
        )
    record = _record(stack, client, views)
    stack.auditor.assert_clean()
    return record


@pytest.mark.parametrize("seed", [0, 7])
def test_scenario_with_bare_values_is_the_ministack(seed):
    scenario, stack = _through_scenario(seed, None), _through_ministack(seed, None)
    assert scenario == stack
    assert len(scenario["outcomes"]) == REQUESTS
    assert scenario["events"] > 10 * REQUESTS


def test_schedule_crash_is_a_crash_restart_fault():
    crash = ("replica-2", 120.0, 400.0)
    scenario, stack = _through_scenario(0, crash), _through_ministack(0, crash)
    assert scenario == stack
    sizes = [(when, len(members)) for when, _view_id, members in scenario["views"]]
    # Evicted on the second missed 10 ms poll after the crash, back in the
    # view the instant the host restarts (+1 ms notification each).
    assert sizes == [(131.0, HOSTS - 1), (401.0, HOSTS)]
    assert "replica-2" in scenario["views"][-1][2]


# -- structural guard ----------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Each layer's constructor, and the package that defines it.
WIRED_ONCE = {
    "GroupCommunication": "group",
    "FailureDetector": "group",
    "LanModel": "net",
    "Transport": "net",
    "TimingFaultServerHandler": "gateway",
    "FaultPlane": "faultinject",
}

#: The per-family fault drivers the one plane replaced.
RETIRED = ("LifecycleFaultDriver", "PartitionDriver", "ClockDriver", "OverloadDriver")


def _modules_constructing(name: str, home: str) -> List[str]:
    call = re.compile(rf"(?<![\w.]){name}\(")
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).parts[0] != home
        and any(
            call.search(line) and not line.lstrip().startswith("class ")
            for line in path.read_text().splitlines()
        )
    )


@pytest.mark.parametrize("name,home", sorted(WIRED_ONCE.items()))
def test_each_layer_is_constructed_in_one_module(name, home):
    assert _modules_constructing(name, home) == ["workload/ministack.py"]


def test_the_replica_side_injector_is_gone():
    assert not (SRC / "replica" / "faults.py").exists()
    source = "\n".join(path.read_text() for path in SRC.rglob("*.py"))
    assert [name for name in RETIRED if name in source] == []
