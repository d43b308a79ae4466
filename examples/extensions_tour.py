#!/usr/bin/env python
"""Tour of the paper's §8 extensions, all enabled at once.

A trading-analytics service exports two methods — a cheap ``process``
quote lookup and a heavy ``analyze`` risk computation — on *specialist*
replicas (half are fast at one method, half at the other).  The client
enables:

* per-method request classification (separate performance models),
* active probing (its workload has idle stretches),
* a gateway-delay sliding window (the office LAN is bursty),
* two-crash tolerance (it is paranoid).

Run:  python examples/extensions_tour.py
"""

from repro import QoSSpec, Scenario, ScenarioConfig
from repro.core.selection import DynamicSelectionPolicy
from repro.gateway.handlers.timing_fault import method_classifier
from repro.replica.load import ServiceProfile
from repro.sim.random import Constant, Normal

FAST = Normal(35.0, 10.0)
SLOW = Normal(180.0, 30.0)


def specialist_profile(host: str) -> ServiceProfile:
    index = int(host.rsplit("-", 1)[1])
    if index % 2 == 1:
        return ServiceProfile(default=FAST, per_method={"analyze": SLOW})
    return ServiceProfile(default=SLOW, per_method={"analyze": FAST})


def main() -> None:
    config = ScenarioConfig(
        seed=17,
        num_replicas=6,
        service="analytics",
        bursty_network=True,
        extra_methods={"analyze": FAST},  # signature; profiles decide cost
        profile_factory=specialist_profile,
    )
    scenario = Scenario(config)
    client = scenario.add_client(
        "trader-1",
        QoSSpec("analytics", deadline_ms=140.0, min_probability=0.9),
        num_requests=60,
        think_time=Constant(800.0),
        method_chooser=lambda i: "analyze" if i % 3 == 0 else "process",
        policy=DynamicSelectionPolicy(crash_tolerance=2, fixed_overhead_ms=0.3),
        handler_kwargs={
            "classifier": method_classifier,
            "probe_staleness_ms": 2_000.0,
            "gateway_window_size": 5,
        },
    )
    scenario.schedule_crash("replica-1", at_ms=20_000.0)  # a fast specialist
    scenario.run_to_completion()

    summary = client.summary()
    handler = scenario.handlers["trader-1"]

    print("Extensions tour: specialist replicas, bursty LAN, one crash\n")
    print(f"  requests            : {summary.requests}")
    print(f"  timing failures     : {summary.timing_failures} "
          f"(observed {summary.failure_probability:.3f}, budget 0.100)")
    print(f"  lost requests       : {summary.timeouts}")
    print(f"  mean redundancy     : {summary.mean_redundancy:.2f} "
          f"(2-crash hedge raises the floor to 3)")
    print(f"  probes sent         : {handler.probes_sent}")
    print(f"  performance classes : {handler.request_classes()}")

    print("\nPer-class view of replica-2 (an analyze-specialist):")
    models = handler.engine.models
    for class_key in ("process", "analyze"):
        if (
            class_key not in models.classes()
            or "replica-2" not in models.repository_for(class_key)
        ):
            continue
        probability = models.estimator_for(class_key).probability_by(
            "replica-2", 140.0
        )
        shown = "no data yet" if probability is None else f"{probability:.3f}"
        print(f"  F_replica-2(140 ms | {class_key:<8}) = {shown}")

    assert summary.failure_probability <= 0.1
    print("\nAll extensions cooperating: QoS met through the crash.")


if __name__ == "__main__":
    main()
