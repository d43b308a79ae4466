"""The ISSUE's acceptance test: a randomized fault schedule over 500
requests must drain to a clean lifecycle audit.

Three closed-loop clients (two timing-fault handlers, one retransmitting
strawman) fire 500 requests at five replicas while the schedule injects
message drops, delay spikes, duplicated/late replies, crash-mid-service
with restart, and view churn.  Afterwards the LifecycleAuditor must find
every request completed exactly once and zero leaked request-record /
retransmitted-copy / probe entries anywhere.

The test runs over a small seed matrix; every assertion message carries
``(seed, fault_seed)`` so a failing combination can be replayed directly.
``FAULT_ACCEPTANCE_SCALE`` (an integer, default 1) multiplies the request
counts and the schedule horizon — the nightly CI job runs at 5×.
"""

import os

import pytest

from repro.faultinject import random_fault_schedule
from repro.gateway.handlers.retransmit import RetransmittingClientHandler
from repro.rng import RNGManager
from repro.sim.random import Constant

from .conftest import FaultStack

REPLICAS = [f"s-{i + 1}" for i in range(5)]
SCALE = max(1, int(os.environ.get("FAULT_ACCEPTANCE_SCALE", "1")))

# (component seed, fault-injection seed, schedule-draw seed).  The first
# combination is the historic one; keep it first so its schedule stays
# bit-for-bit identical with earlier revisions.
SEED_MATRIX = [(3, 11, 7), (4, 19, 23), (5, 29, 31)]


def _closed_loop(stack, host, count, think_ms, first_arg=0):
    """Drive ``count`` sequential requests with a short think time."""

    def run():
        for i in range(count):
            yield stack.invoke(host, first_arg + i)
            yield stack.sim.timeout(think_ms)

    return stack.sim.spawn(run(), name=f"load.{host}")


@pytest.mark.parametrize("seed,fault_seed,schedule_seed", SEED_MATRIX)
def test_randomized_fault_schedule_drains_clean(seed, fault_seed, schedule_seed):
    tag = f"(seed={seed}, fault_seed={fault_seed})"
    stack = FaultStack(seed=seed, fault_seed=fault_seed)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client("c-1", deadline_ms=100.0, response_timeout_factor=3.0)
    stack.add_client("c-2", deadline_ms=60.0, response_timeout_factor=3.0)
    stack.add_client(
        "c-3",
        deadline_ms=100.0,
        handler_cls=RetransmittingClientHandler,
        response_timeout_factor=3.0,
    )

    schedule = random_fault_schedule(
        RNGManager(schedule_seed),
        horizon_ms=4000.0 * SCALE,
        replicas=REPLICAS,
    )
    driver = stack.faults
    driver.apply(schedule)

    loads = [
        _closed_loop(stack, "c-1", 170 * SCALE, think_ms=5.0),
        _closed_loop(stack, "c-2", 170 * SCALE, think_ms=5.0, first_arg=100_000),
        _closed_loop(stack, "c-3", 160 * SCALE, think_ms=5.0, first_arg=200_000),
    ]
    stack.sim.run()
    assert all(not load.alive for load in loads), f"load stuck {tag}"

    # Every fault family actually fired.  Whether a drawn window catches
    # traffic depends on the seeds, so the family coverage assertions are
    # pinned to the historic combination only.
    if (seed, fault_seed, schedule_seed) == SEED_MATRIX[0]:
        assert stack.transport.injected_drops > 0, tag
        assert stack.transport.injected_delays > 0, tag
        assert stack.transport.injected_duplicates > 0, tag
        assert driver.crashes_applied >= 1, tag
        assert driver.restarts_applied >= 1, tag
        assert driver.leaves_applied + driver.rejoins_applied >= 1, tag

    report = stack.auditor.assert_clean()
    assert report.submitted == 500 * SCALE, tag
    assert report.completed == 500 * SCALE, tag
    assert report.replies > 0, tag  # useful work happened despite faults
    # Zero leaked entries, spelled out for the acceptance criterion:
    for client in stack.clients.values():
        assert client.pending == {}, f"pending leak in {client.host} {tag}"
        assert client.probes == {}, f"probe leak in {client.host} {tag}"
        # ...and the copy book too (only c-3 retransmits).
        assert client.lifecycle_leaks() == {}, f"leak in {client.host} {tag}"


def test_same_seed_same_outcome():
    # The harness is deterministic end to end: identical seeds must give
    # identical reply/timeout splits (a prerequisite for debugging any
    # future auditor failure).
    def run_once():
        stack = FaultStack(seed=5, fault_seed=21)
        for host in REPLICAS[:3]:
            stack.add_server(host, service_time=Constant(8.0))
        stack.add_client("c-1", deadline_ms=80.0, response_timeout_factor=3.0)
        schedule = random_fault_schedule(
            RNGManager(13), horizon_ms=600.0, replicas=REPLICAS[:3]
        )
        stack.faults.apply(schedule)
        _closed_loop(stack, "c-1", 40, think_ms=4.0)
        stack.sim.run()
        report = stack.auditor.assert_clean()
        return report.replies, report.timeouts, stack.transport.injected_drops
    assert run_once() == run_once()
