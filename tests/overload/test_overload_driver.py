"""Flash-crowd surges (the fault plane's overload family) and OverloadFault."""

import dataclasses

import pytest

from repro.faultinject import (
    FaultSchedule,
    OverloadFault,
    random_fault_schedule,
)
from repro.rng import RNGManager
from repro.sim.random import Constant

from ..faults.conftest import FaultStack

REPLICAS = [f"s-{i + 1}" for i in range(5)]


def test_overload_fault_validation():
    with pytest.raises(ValueError):
        OverloadFault(start_ms=10.0, end_ms=10.0)
    with pytest.raises(ValueError):
        OverloadFault(start_ms=0.0, end_ms=10.0, surge_interarrival_ms=0.0)


def test_driver_requires_known_submitters():
    # A surge needs a bound client to fire through, and every client it
    # names must be one; both are rejected before anything is armed.
    stack = FaultStack()
    everyone = FaultSchedule(overloads=(OverloadFault(start_ms=0.0, end_ms=10.0),))
    with pytest.raises(ValueError, match="overloads: no client is bound"):
        stack.faults.apply(everyone)
    stack.add_server("s-1")
    stack.add_client("c-1")
    with pytest.raises(ValueError, match="overloads.*'nope'"):
        stack.faults.apply(
            FaultSchedule(
                overloads=(
                    OverloadFault(start_ms=0.0, end_ms=10.0, clients=("nope",)),
                )
            )
        )
    stack.sim.run()
    assert stack.faults.surges_applied == 0


def test_surge_requests_flow_through_the_real_client_path():
    stack = FaultStack(seed=4)
    for host in REPLICAS[:3]:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    schedule = FaultSchedule(
        overloads=(
            OverloadFault(start_ms=10.0, end_ms=60.0, surge_interarrival_ms=5.0),
        )
    )
    plane = stack.faults
    plane.apply(schedule)
    stack.sim.run()

    assert plane.surges_applied == 1
    assert plane.surge_requests == 10  # 10, 15, ..., 55
    assert all(event.processed for event in plane.surge_events)
    # Every surge request was booked by the auditor (it went through the
    # wrapped submit) and completed exactly once.
    report = stack.auditor.assert_clean()
    assert report.submitted == plane.surge_requests
    assert report.replies == plane.surge_requests


def test_overload_windows_draw_after_existing_families():
    # Adding overload windows to a randomized schedule must not disturb
    # any previously drawn fault: same seed, same drops/delays/crashes.
    base = random_fault_schedule(
        RNGManager(7), horizon_ms=4000.0, replicas=REPLICAS
    )
    extended = random_fault_schedule(
        RNGManager(7),
        horizon_ms=4000.0,
        replicas=REPLICAS,
        overload_windows=2,
    )
    assert len(extended.overloads) == 2
    for field in dataclasses.fields(FaultSchedule):
        if field.name == "overloads":
            continue
        assert getattr(extended, field.name) == getattr(base, field.name), (
            field.name
        )
    for fault in extended.overloads:
        assert 0.0 <= fault.start_ms < fault.end_ms <= 4000.0 * 0.85


def test_randomized_schedule_with_surges_and_shedding_audits_clean():
    """The ISSUE's composition check: flash crowds + message faults +
    crash/churn + a shedding client all drain to a clean
    audit with reply XOR timeout XOR shed accounting."""
    stack = FaultStack(seed=6, fault_seed=17)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client(
        "c-1",
        deadline_ms=9.0,  # barely attainable: sheds once engaged
        response_timeout_factor=4.0,
        overload_config=True,
    )
    schedule = random_fault_schedule(
        RNGManager(29),
        horizon_ms=2000.0,
        replicas=REPLICAS,
        overload_windows=2,
    )
    plane = stack.faults
    plane.apply(schedule)

    def load():
        for i in range(120):
            yield stack.invoke("c-1", i)
            yield stack.sim.timeout(5.0)

    stack.sim.spawn(load(), name="load")
    stack.sim.run()

    assert plane.surge_requests > 0
    assert all(event.processed for event in plane.surge_events)
    report = stack.auditor.assert_clean()
    assert report.submitted == 120 + plane.surge_requests
    assert report.completed == report.submitted
    assert report.sheds > 0  # the admission controller actually engaged
    assert report.replies > 0  # bootstrap / modelless requests got through
    assert stack.clients["c-1"].sheds == report.sheds
