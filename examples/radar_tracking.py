#!/usr/bin/env python
"""Radar tracking: a time-critical client surviving a replica crash.

The paper motivates its work with "stateless applications such as search
engines and radar-tracking applications".  A radar track processor cannot
tolerate gaps: every position update must be correlated within a hard
window or the track is lost.  This example runs a tracking client with a
tight 150 ms deadline at Pc >= 0.95 while the *most responsive* replica
crashes mid-mission — precisely the case Algorithm 1's always-include-
the-best-but-never-count-it rule was built for — and then recovers.

Run:  python examples/radar_tracking.py
"""

from repro import QoSSpec, Scenario, ScenarioConfig
from repro.sim.random import Constant


def main() -> None:
    config = ScenarioConfig(
        seed=11,
        num_replicas=5,
        service="radar-track",
        method="correlate",
        # Track correlation is cheaper and less noisy than the generic
        # search workload.
        service_mean_ms=70.0,
        service_sigma_ms=25.0,
    )
    scenario = Scenario(config)
    tracker = scenario.add_client(
        "tracker-1",
        QoSSpec("radar-track", deadline_ms=150.0, min_probability=0.95),
        num_requests=80,
        think_time=Constant(250.0),  # 4 Hz update rate
    )

    # Mission timeline: the best replica dies at t=6 s, returns at t=14 s.
    crash_at_ms, recover_at_ms = 6_000.0, 14_000.0
    scenario.schedule_crash(
        "replica-1", at_ms=crash_at_ms, recover_at_ms=recover_at_ms
    )
    # The failure detector's verdict is the instant the group evicts.
    evictions = []
    scenario.detector.on_crash(lambda host: evictions.append(scenario.sim.now))

    scenario.run_to_completion()
    summary = tracker.summary()

    print("Radar tracking under a mid-mission crash")
    print(f"  updates processed  : {summary.requests}")
    print(f"  missed deadlines   : {summary.timing_failures} "
          f"(observed probability {summary.failure_probability:.3f}, "
          f"budget 0.050)")
    print(f"  lost updates       : {summary.timeouts} (no reply at all)")
    print(f"  mean redundancy    : {summary.mean_redundancy:.2f} of 5")

    print(f"\n  crash injected at  : {crash_at_ms / 1000:.2f} s")
    if evictions:
        detection = evictions[0] - crash_at_ms
        print(f"  eviction after     : {detection:.0f} ms "
              "(failure-detection latency the redundancy must cover)")

    outcomes_during_outage = [
        o for o in tracker.outcomes if crash_at_ms <= o.t0_ms < recover_at_ms
    ]
    print(f"  updates in outage  : {len(outcomes_during_outage)}")
    replicas_seen = {o.replica for o in tracker.outcomes if o.replica}
    print(f"  replicas that answered over the run: {sorted(replicas_seen)}")

    assert summary.timeouts == 0, "redundancy should mask the crash"
    print("\nNo update was lost: the selected sets absorbed the crash of "
          "their best member, as Equation 3 guarantees.")


if __name__ == "__main__":
    main()
