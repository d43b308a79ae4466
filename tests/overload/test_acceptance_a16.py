"""The ISSUE's A16 acceptance criterion, runnable in CI.

At the flash-crowd knee (eight closed-loop clients against five
replicas) the ungoverned paper stack collapses — its in-deadline
fraction drops below 0.5 as select-all hedging amplifies the very load
that caused it — while the governed stack keeps the admitted in-deadline
fraction at or above 0.9 with a bounded, metered shed fraction.

``FAULT_ACCEPTANCE_SCALE`` (the nightly job sets 5) widens the seed set
and unlocks the confound check that queue-scaled estimation alone — the
estimator the governed stack pairs with — does *not* avert the collapse.
"""

import os

import pytest

from repro.experiments.overload_collapse import point

SCALE = max(1, int(os.environ.get("FAULT_ACCEPTANCE_SCALE", "1")))
SEEDS = (0,) if SCALE == 1 else (0, 1)


def _knee(variant, seed):
    """One run at the knee: eight clients, forty requests each."""
    return point(
        {"variant": variant, "num_clients": 8, "num_requests": 40}, seed, 0
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_ungoverned_collapses_at_the_knee(seed):
    run = _knee("ungoverned", seed)
    timely = run["timely_fraction"]
    assert timely < 0.5, f"expected collapse, got timely={timely:.3f}"
    assert run["shed_fraction"] == 0.0  # nothing sheds without the subsystem
    # The collapse mechanism on display: hedging escalated to select-all.
    assert run["mean_redundancy"] > 4.5


@pytest.mark.parametrize("seed", SEEDS)
def test_governed_sustains_admitted_timeliness(seed):
    run = _knee("governed", seed)
    timely = run["timely_fraction"]
    admitted_timely = run["admitted_timely_fraction"]
    shed = run["shed_fraction"]
    assert admitted_timely >= 0.9, (
        f"governed admitted timeliness {admitted_timely:.3f} < 0.9"
    )
    assert shed <= 0.2, f"shed fraction {shed:.3f} unbounded"
    # Sheds are metered, so the issued-requests view stays honest:
    # timely = admitted_timely * (1 - shed).
    assert timely == pytest.approx(admitted_timely * (1.0 - shed), abs=1e-9)
    assert run["mean_redundancy"] < 3.0  # the governor held hedging down


@pytest.mark.skipif(
    SCALE < 2, reason="confound check runs in the nightly acceptance job"
)
def test_queue_scaled_estimation_alone_does_not_avert_collapse():
    """The governed variant pairs the governor with the A11 queue-scaled
    estimator; this pins down that the *governor* is the load-bearing
    part: the same estimator without governor/admission still collapses
    past the knee."""
    from repro.core.estimator import QueueScaledEstimator
    from repro.core.qos import QoSSpec
    from repro.experiments.overload_collapse import (
        DEADLINE_MS,
        NUM_REPLICAS,
        SERVICE_MEAN_MS,
        SERVICE_SIGMA_MS,
        THINK_MS,
    )
    from repro.sim.random import Exponential, Normal
    from repro.workload.scenarios import Scenario, ScenarioConfig

    scenario = Scenario(
        ScenarioConfig(
            seed=0,
            num_replicas=NUM_REPLICAS,
            service_mean_ms=SERVICE_MEAN_MS,
            service_sigma_ms=SERVICE_SIGMA_MS,
            service_distribution_factory=lambda host: Normal(
                SERVICE_MEAN_MS, SERVICE_SIGMA_MS
            ),
            response_timeout_factor=3.0,
            keep_samples=False,
        )
    )
    clients = [
        scenario.add_client(
            f"client-{i + 1}",
            QoSSpec(
                scenario.config.service,
                deadline_ms=DEADLINE_MS,
                min_probability=0.9,
            ),
            num_requests=40,
            think_time=Exponential(THINK_MS),
            handler_kwargs={"estimator_factory": QueueScaledEstimator},
        )
        for i in range(16)
    ]
    scenario.run_to_completion()
    scenario.audit_lifecycle()
    summaries = [c.summary() for c in clients]
    requests = sum(s.requests for s in summaries)
    failures = sum(s.timing_failures for s in summaries)
    timely = (requests - failures) / requests
    assert timely < 0.5, (
        f"queue scaling alone sustained timely={timely:.3f}; the A16 "
        "narrative (governor is load-bearing) no longer holds"
    )


def _cell(variant, clients, redundancy, response_ms, utilisation):
    params = {"variant": variant, "num_clients": clients, "num_requests": 40}
    run = {
        "mean_redundancy": redundancy,
        "mean_response_ms": response_ms,
        "utilisation": utilisation,
    }
    return params, [run]


def test_the_capacity_bound_is_checked_only_where_it_binds():
    from repro.experiments.overload_collapse import bound_violations, rows

    table = rows(
        [
            _cell("ungoverned", 16, 5.0, 125.9, 0.99),  # bound 123: 1.024
            _cell("ungoverned", 24, 5.0, 177.0, 0.99),  # bound 187 > 180 ms
            _cell("governed", 8, 2.0, 40.0, 0.70),  # unsaturated: a floor only
            _cell("governed", 16, 2.0, 60.0, 0.96),  # bound 46.2: 1.30
            _cell("governed", 24, 2.0, 70.0, 0.95),  # bound 71.8: under it
        ]
    )
    assert [row["bound_ms"] for row in table] == [123.0, 187.0, 20.6, 46.2, 71.8]
    assert table[0]["response_over_bound"] == 125.9 / 123.0
    assert table[1]["response_over_bound"] == "censored"
    assert bound_violations(table) == [
        "governed 16 clients: response / bound 1.299 at utilisation 0.960",
        "governed 24 clients: response / bound 0.975 at utilisation 0.950",
    ]
