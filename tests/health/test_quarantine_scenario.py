"""The ISSUE's acceptance scenario: a persistently degraded replica is
quarantined, receives zero client traffic while quarantined, is re-admitted
through probation probes after it recovers — and the client's timely
fraction during the degradation window beats the no-health baseline.

Why the baseline suffers (model starvation): with ``crash_tolerance=0``
every replica predicts F(t)=1, so selection keeps picking ``s-1`` by the
deterministic name tie-break.  Once the degradation drops all of ``s-1``'s
traffic its performance window never refreshes, the stale-good model keeps
nominating it, and every request burns the full response timeout.
"""

from repro.core.selection import DynamicSelectionPolicy
from repro.faultinject import DegradationFault, FaultSchedule
from repro.health import HealthConfig, HealthState
from repro.sim.random import Constant

from ..faults.conftest import FaultStack

REPLICAS = [f"s-{i + 1}" for i in range(5)]
WINDOW_START, WINDOW_END = 500.0, 2500.0
REQUESTS = 150


def run_scenario(with_health: bool):
    schedule = FaultSchedule(
        degradations=(
            DegradationFault(
                host="s-1",
                start_ms=WINDOW_START,
                end_ms=WINDOW_END,
                omission_probability=1.0,
            ),
        )
    )
    stack = FaultStack(seed=3, fault_seed=11)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))

    kwargs = dict(
        deadline_ms=100.0,
        min_probability=0.9,
        response_timeout_factor=3.0,
        policy=DynamicSelectionPolicy(crash_tolerance=0),
    )
    if with_health:
        kwargs["health_config"] = HealthConfig(backoff_initial_ms=400.0)
        kwargs["probe_interval_ms"] = 200.0
    client = stack.add_client("c-1", **kwargs)
    stack.faults.apply(schedule)

    outcomes = []

    def load():
        for i in range(REQUESTS):
            t0 = stack.sim.now
            event = stack.invoke("c-1", i)
            yield event
            outcomes.append((t0, event.value))
            yield stack.sim.timeout(5.0)

    stack.sim.spawn(load(), name="load.c-1")
    stack.sim.run()
    # Keep the clock moving so the re-admission probes (daemon activity)
    # can finish even though the client load has drained.
    stack.sim.run(until=6000.0)
    return stack, client, outcomes


def timely_fraction(outcomes, since, until):
    window = [v.timely for t0, v in outcomes if since <= t0 < until]
    assert window, "no requests submitted inside the degradation window"
    return sum(window) / len(window)


class TestQuarantineScenario:
    def test_degraded_replica_is_quarantined_and_readmitted(self):
        stack, client, outcomes = run_scenario(with_health=True)

        transitions = [
            (e.replica, e.new_state, e.at_ms) for e in client.health.events
        ]
        quarantined_at = [
            at
            for replica, state, at in transitions
            if replica == "s-1" and state is HealthState.QUARANTINED
        ]
        assert quarantined_at, f"s-1 never quarantined: {transitions}"
        assert WINDOW_START < quarantined_at[0] < WINDOW_END

        # Zero client traffic while quarantined — auditor-enforced: the
        # quarantined_traffic lifecycle leak would fail assert_clean().
        assert client.quarantined_traffic == []
        report = stack.auditor.assert_clean()
        assert report.submitted == REQUESTS
        assert report.completed == REQUESTS

        # Re-admitted through probation after the degradation lifts.
        probation_at = [
            at
            for replica, state, at in transitions
            if replica == "s-1" and state is HealthState.PROBATION
        ]
        assert probation_at and probation_at[0] > WINDOW_END
        assert client.health.state("s-1") is HealthState.HEALTHY

    def test_health_beats_the_no_health_baseline_in_the_window(self):
        _, _, with_health = run_scenario(with_health=True)
        _, _, baseline = run_scenario(with_health=False)

        healthy_frac = timely_fraction(with_health, WINDOW_START, WINDOW_END)
        baseline_frac = timely_fraction(baseline, WINDOW_START, WINDOW_END)

        # The baseline starves on the stale-good model: nearly every
        # in-window request chases s-1 into a 300 ms timeout.  The health
        # subsystem eats a couple of faults, then routes around it.
        assert baseline_frac < 0.3
        assert healthy_frac > 0.8
        assert healthy_frac > baseline_frac + 0.5

    def test_traffic_returns_to_the_recovered_replica(self):
        stack, client, _ = run_scenario(with_health=True)
        assert client.health.state("s-1") is HealthState.HEALTHY

        event = stack.invoke("c-1", 9999)
        stack.sim.run()
        outcome = event.value
        # Fully recovered: s-1 wins the name tie-break again.
        assert outcome.timely
        assert outcome.replica == "s-1"
