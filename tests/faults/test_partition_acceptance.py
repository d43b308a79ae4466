"""ISSUE 9 acceptance scenario: a 30 s asymmetric cut of the best replica.

The paper's pitch is that dynamic selection keeps meeting deadlines when
individual replicas go bad.  Here the *best* replica (lowest service
time) is one-way partitioned for thirty simulated seconds — its requests
arrive, its replies vanish, and the LAN still reports it up, so only the
health subsystem's omission streak (``unreachable_after``) can notice.
The contract:

* the connected majority keeps serving — the in-window timely fraction
  stays at or above 0.95;
* the partitioned replica is re-admitted after the heal and serves again;
* the drain-time audit is clean: no leaked requests, no resurrections,
  and no acks from the dark side of the cut.
"""

from repro.faultinject import FaultSchedule, PartitionFault
from repro.health import HealthConfig
from repro.sim.random import Constant

from .conftest import FaultStack

CUT_START_MS = 2_000.0
CUT_END_MS = 32_000.0
HORIZON_MS = 40_000.0


def _build():
    schedule = FaultSchedule(
        partitions=(
            PartitionFault(
                side=("s-1",),
                start_ms=CUT_START_MS,
                end_ms=CUT_END_MS,
                mode="outbound",
            ),
        ),
    )
    stack = FaultStack()
    stack.add_server("s-1", service_time=Constant(4.0))  # the best replica
    stack.add_server("s-2", service_time=Constant(10.0))
    stack.add_server("s-3", service_time=Constant(10.0))
    stack.add_client(
        "client-1",
        deadline_ms=100.0,
        response_timeout_factor=3.0,
        probe_interval_ms=50.0,
        health_config=HealthConfig(backoff_initial_ms=200.0, unreachable_after=3),
    )
    stack.faults.apply(schedule)
    return stack


def _closed_loop(stack, outcomes, think_ms=4.0, until_ms=HORIZON_MS):
    for i in range(100_000):
        t0 = stack.sim.now
        if t0 >= until_ms:
            return
        outcomes.append((t0, (yield stack.invoke("client-1", i))))
        yield stack.sim.timeout(think_ms)


def test_majority_rides_out_a_30s_cut_of_the_best_replica():
    stack = _build()
    outcomes = []
    stack.sim.spawn(_closed_loop(stack, outcomes), name="load")
    stack.sim.run(until=HORIZON_MS)
    served_mid_cut = stack.servers["s-2"].replies + stack.servers["s-3"].replies
    stack.sim.run(until=HORIZON_MS + 10_000.0)

    # The one-way cut really was one-way: the dark replica kept receiving
    # (and serving) requests whose replies died on the wire.
    assert stack.faults.cuts_applied == 1
    assert stack.faults.heals_applied == 1
    assert stack.transport.injected_partition_drops > 0
    assert served_mid_cut > 0

    # QoS floor: the connected majority keeps the paper's promise for
    # requests submitted while the cut is active.
    in_window = [
        value
        for t0, value in outcomes
        if CUT_START_MS <= t0 < CUT_END_MS and not value.shed
    ]
    assert len(in_window) > 1_000  # the loop really ran through the cut
    timely_fraction = sum(v.timely for v in in_window) / len(in_window)
    assert timely_fraction >= 0.95

    # Post-heal: the best replica is re-admitted and serves fresh load.
    healed_baseline = stack.servers["s-1"].replies
    late_outcomes = []
    stack.sim.spawn(
        _closed_loop(
            stack,
            late_outcomes,
            think_ms=1.0,
            until_ms=HORIZON_MS + 11_000.0,
        ),
        name="late-load",
    )
    stack.sim.run(until=HORIZON_MS + 12_000.0)

    # Drain-time audit: every request completed exactly once, nothing
    # leaked, and no reply was acknowledged from the dark side.
    for client in stack.clients.values():
        client.quiesce_probes()
    stack.auditor.assert_clean()
    assert stack.servers["s-1"].replies >= healed_baseline
