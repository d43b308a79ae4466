"""The deployment's one fault plane: one ``apply`` arms a whole schedule.

The per-family behaviour is covered next to each family
(``test_crash_restart``, ``test_partition``, ``test_clock``,
``tests/overload``); what is checked here is the contract of the single
entry point — every family of a schedule is injected by the one call,
what a deployment cannot inject is rejected before anything is armed,
and schedules applied one after another add up.
"""

import pytest

from repro.core.baselines import AllReplicasPolicy
from repro.faultinject import (
    ChurnFault,
    ClockFault,
    CrashRestartFault,
    DegradationFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultSchedule,
    OverloadFault,
    PartitionFault,
    PROBE_EXEMPT_KINDS,
)
from repro.faultinject.schedule import FAMILIES
from repro.gateway.handlers.timing_fault import MSG_REQUEST
from repro.sim.random import Constant
from repro.workload.ministack import MiniStack

from .conftest import FaultStack

REPLICAS = ("s-1", "s-2", "s-3")

#: One fault of each of the nine families, spread over a 700 ms run.
NINE = FaultSchedule(
    drops=(DropRule(start_ms=20.0, end_ms=60.0, kinds=(MSG_REQUEST,)),),
    delays=(DelayRule(start_ms=80.0, end_ms=120.0, extra_ms=3.0),),
    duplicates=(DuplicateRule(start_ms=140.0, end_ms=180.0, late_by_ms=2.0),),
    crashes=(CrashRestartFault("s-1", crash_at_ms=200.0, restart_at_ms=260.0),),
    churn=(ChurnFault("s-2", leave_at_ms=280.0, rejoin_at_ms=320.0),),
    degradations=(
        DegradationFault(
            "s-3", start_ms=340.0, end_ms=400.0,
            slow_factor=2.0, omission_probability=0.5,
        ),
    ),
    overloads=(OverloadFault(start_ms=420.0, end_ms=460.0),),
    partitions=(PartitionFault(side=("s-1",), start_ms=480.0, end_ms=540.0),),
    clocks=(
        ClockFault("s-2", start_ms=560.0, end_ms=620.0, kind="step", step_ms=9.0),
    ),
)


def _stack(stack):
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(4.0))
    # Every request goes to every replica, so each host-scoped fault
    # below catches traffic whatever the model prefers.
    stack.add_client(
        "c-1", deadline_ms=60.0, response_timeout_factor=2.0,
        policy=AllReplicasPolicy(),
    )
    return stack


def test_one_apply_fires_all_nine_families():
    assert all(len(getattr(NINE, family)) == 1 for family in FAMILIES)
    stack = _stack(FaultStack(seed=2, fault_seed=5))
    stack.faults.apply(NINE)

    def load():  # open loop: a lost request must not starve later windows
        while stack.sim.now < 700.0:
            stack.invoke("c-1")
            yield stack.sim.timeout(5.0)

    stack.sim.spawn(load(), name="load")
    stack.sim.run()
    wire, plane = stack.transport, stack.faults
    fired = {
        "drops": wire.injected_drops,
        "delays": wire.injected_delays,
        "duplicates": wire.injected_duplicates,
        "crashes": plane.crashes_applied,
        "churn": plane.leaves_applied,
        "degradations": min(
            plane.degradations_applied, wire.injected_degradation_drops
        ),
        "overloads": plane.surge_requests,
        "partitions": min(plane.cuts_applied, wire.injected_partition_drops),
        "clocks": plane.engagements,
    }
    assert sorted(fired) == sorted(FAMILIES)
    assert [family for family, count in fired.items() if count == 0] == []
    assert NINE == plane.schedule == stack.auditor._schedule == wire.schedule
    stack.auditor.assert_clean()


def test_plain_wire_rejects_wire_level_rules_and_takes_the_rest():
    stack = _stack(MiniStack())
    for family in ("drops", "delays", "duplicates"):
        with pytest.raises(ValueError, match=f"{family} need a fault-injecting"):
            stack.faults.apply(FaultSchedule(**{family: getattr(NINE, family)}))
    with pytest.raises(ValueError, match="degradations .omission. need"):
        stack.faults.apply(FaultSchedule(degradations=NINE.degradations))
    with pytest.raises(ValueError, match="partitions .grey or lossy. need"):
        stack.faults.apply(
            FaultSchedule(
                partitions=(
                    PartitionFault(
                        ("s-1",), start_ms=1.0, end_ms=9.0,
                        exempt_kinds=PROBE_EXEMPT_KINDS,
                    ),
                )
            )
        )
    # Nothing of a rejected schedule is armed, not even its legal half.
    with pytest.raises(ValueError, match="drops, delays, duplicates"):
        stack.faults.apply(NINE)
    stack.sim.run(until=700.0)
    assert stack.faults.crashes_applied == stack.faults.engagements == 0
    assert len(stack.faults.schedule) == 0
    # What needs no per-message interpretation is legal on the plain wire
    # (A18 runs its clocks-only schedule this way).
    legal = FaultSchedule(
        crashes=(CrashRestartFault("s-1", crash_at_ms=710.0, restart_at_ms=730.0),),
        churn=(ChurnFault("s-2", leave_at_ms=720.0, rejoin_at_ms=740.0),),
        degradations=(
            DegradationFault("s-3", start_ms=720.0, end_ms=760.0, slow_factor=2.0),
        ),
        overloads=(OverloadFault(start_ms=720.0, end_ms=740.0),),
        partitions=(PartitionFault(side=("s-1",), start_ms=760.0, end_ms=790.0),),
        clocks=(ClockFault("s-2", start_ms=720.0, end_ms=760.0, kind="freeze"),),
    )
    stack.faults.apply(legal)
    stack.sim.run(until=900.0)
    plane = stack.faults
    assert (
        plane.crashes_applied, plane.leaves_applied, plane.degradations_applied,
        plane.surges_applied, plane.cuts_applied, plane.engagements,
    ) == (1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "family,fault",
    [
        ("churn", ChurnFault("ghost", leave_at_ms=5.0)),
        (
            "degradations",
            DegradationFault("ghost", start_ms=5.0, end_ms=9.0, slow_factor=2.0),
        ),
    ],
)
def test_unknown_host_is_rejected_whatever_the_family(family, fault):
    # Crashes, partitions, clocks and surge clients: see their own files.
    stack = _stack(FaultStack())
    known = CrashRestartFault("s-1", crash_at_ms=5.0)
    with pytest.raises(ValueError, match=f"{family}.*'ghost'"):
        stack.faults.apply(FaultSchedule(crashes=(known,), **{family: (fault,)}))
    stack.sim.run(until=20.0)
    assert stack.faults.crashes_applied == 0


def test_successive_applies_add_up_on_the_wire_and_in_the_audit():
    stack = _stack(FaultStack())
    first = FaultSchedule(drops=NINE.drops, partitions=NINE.partitions)
    second = FaultSchedule(delays=NINE.delays, crashes=NINE.crashes)
    stack.faults.apply(first)
    stack.faults.apply(second)
    merged = first.merged(second)
    assert merged == stack.auditor._schedule == stack.transport.schedule
    stack.sim.run(until=700.0)
    assert stack.faults.cuts_applied == stack.faults.crashes_applied == 1
