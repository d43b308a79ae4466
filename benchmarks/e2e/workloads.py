"""The four named workloads and the books each run is read from.

Every workload is ``prepare(seed, scale) -> Prepared``: ``prepare`` is
set-up (scenario/config build), ``Prepared.run()`` is the timed region,
``Prepared.finish()`` reads the simulated statistics afterwards.  The
program under test receives only the generated configuration; the seed
is the benchmark's argument.

All clients are closed-loop (callers block on a CORBA stub reply).
Accounting goes through one mechanism on every workload: a thin
``TimingFaultClientHandler`` subclass handed in through the public
``handler_cls=`` hooks, which injects a sample-keeping
``MetricsCollector`` and tallies each request's ``ReplyOutcome``.  The
same tally drops a calibration mark every ``mark_every`` completions
(see ``calibration.py``); completions come in the same order in every
pass of a seed, so marks cut every pass into the same segments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.estimator import QueueScaledEstimator
from repro.core.qos import QoSSpec
from repro.experiments import overload_collapse as a16
from repro.faultinject.auditor import LifecycleViolation
from repro.faultinject.campaign import CampaignConfig, run_campaign
from repro.gateway.handlers.timing_fault import TimingFaultClientHandler
from repro.health.state import HealthState
from repro.metrics.collector import MetricsCollector
from repro.sim.random import Exponential, Normal
from repro.workload.scenarios import Scenario, ScenarioConfig

from .calibration import spin
from .catalogue import CHAOS_DIGEST_SEED0

__all__ = ["Books", "Prepared", "Workload", "WORKLOADS"]

#: Calibration marks per pass (segments of equal request count).
SEGMENTS = 200


@dataclass
class Books:
    """Everything one pass counts, owned by the benchmark.

    ``sim`` holds simulated statistics and exact counts only — it must
    come out identical for every repetition and for the traced run.
    """

    #: Requests between calibration marks (expected requests / SEGMENTS).
    mark_every: int
    collector: MetricsCollector = field(
        default_factory=lambda: MetricsCollector(keep_samples=True)
    )
    sim: Dict[str, Any] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: ``(perf_counter before, after)`` of each calibration spin.
    marks: List[Tuple[float, float]] = field(default_factory=list)
    #: The policy's own measured delta of each completed request's
    #: decision, us, in completion order (``None``: bootstrap decision).
    decide_us: List[Optional[float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for key in (
            "requests", "timely", "timeouts", "sheds", "first_replies",
            "redundancy_sum", "fallback_decisions", "bootstrap_decisions",
            "cache_hits", "cache_misses", "probes_sent", "clock_rejections",
            "quarantines",
        ):
            self.sim[key] = 0

    def tally(self, fired: Any) -> None:
        """Account one request from its fired outcome event."""
        sim = self.sim
        sim["requests"] += 1
        if sim["requests"] % self.mark_every == 0:
            self.calibrate()
        if not fired.ok:
            self.problems.append(f"outcome event failed: {fired.value!r}")
            self.decide_us.append(None)
            return
        outcome = fired.value
        overhead_ms = outcome.decision_meta.get("overhead_ms")
        self.decide_us.append(None if overhead_ms is None else overhead_ms * 1000.0)
        if outcome.shed:
            sim["sheds"] += 1
            return
        sim["redundancy_sum"] += outcome.redundancy
        sim["fallback_decisions"] += bool(outcome.decision_meta.get("fallback"))
        sim["bootstrap_decisions"] += bool(outcome.decision_meta.get("bootstrap"))
        if outcome.timed_out:
            sim["timeouts"] += 1
        else:
            sim["first_replies"] += 1
            sim["timely"] += bool(outcome.timely)

    def calibrate(self) -> None:
        """Drop a mark: time one reference spin (not part of the region)."""
        before = time.perf_counter()
        spin()
        self.marks.append((before, time.perf_counter()))

    def harvest(self, handler: TimingFaultClientHandler) -> None:
        """Read a drained handler's public counters."""
        sim = self.sim
        info = handler.estimator.cache_info()
        sim["cache_hits"] += info["hits"]
        sim["cache_misses"] += info["misses"]
        sim["probes_sent"] += handler.probes_sent
        sim["clock_rejections"] += handler.clock_rejections
        if handler.health is not None:
            sim["quarantines"] += sum(
                event.new_state is HealthState.QUARANTINED
                for event in handler.health.events
            )

    def handler_class(self) -> type:
        """The accounting handler subclass bound to these books."""
        books = self

        class AccountedClientHandler(TimingFaultClientHandler):
            def __init__(self, **kwargs: Any) -> None:
                kwargs["metrics"] = books.collector
                super().__init__(**kwargs)

            def submit(self, request: Any) -> Any:
                event = super().submit(request)
                event.add_callback(books.tally)
                return event

            def quiesce_probes(self) -> None:
                # The campaign calls this once per client right before
                # its audit: the only moment its handlers are reachable.
                super().quiesce_probes()
                books.harvest(self)

        return AccountedClientHandler

    def load_index(self) -> List[float]:
        """Every ``tf.load_index`` observation (overload subsystem only)."""
        name = "tf.load_index"
        return [
            sample
            for labels in self.collector.label_sets(name)
            for sample in self.collector.samples(name, labels)
        ]


@dataclass
class Prepared:
    """A built workload: ``run`` is the timed region, ``finish`` reads it."""

    books: Books
    run: Callable[[], None]
    finish: Callable[[], None]


@dataclass(frozen=True)
class Workload:
    """A named workload; ``clients`` is its closed-loop client count."""

    name: str
    clients: int
    prepare: Callable[[int, float], Prepared]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _scenario_workload(
    config: ScenarioConfig,
    requests: int,
    add_clients: Callable[[Scenario, type], None],
) -> Prepared:
    books = Books(mark_every=max(1, requests // SEGMENTS))
    scenario = Scenario(config)
    add_clients(scenario, books.handler_class())

    def run() -> None:
        scenario.run_to_completion()
        try:
            scenario.audit_lifecycle()
        except LifecycleViolation as violation:
            books.problems.append(f"lifecycle audit: {violation}")

    def finish() -> None:
        for handler in scenario.handlers.values():
            books.harvest(handler)
        transport = scenario.transport
        books.sim.update(
            events=scenario.sim.processed_events,
            sim_end_ms=scenario.sim.now,
            messages_sent=transport.sent_count,
            messages_delivered=transport.delivered_count,
            messages_dropped=transport.dropped_count,
            messages_lost=transport.lost_count,
        )

    return Prepared(books, run, finish)


def _paper_idle(seed: int, scale: float) -> Prepared:
    """The paper's section 6 testbed, as published."""
    requests = _scaled(2500, scale)

    def add_clients(scenario: Scenario, handler_cls: type) -> None:
        for name, deadline_ms, pc in (
            ("client-1", 200.0, 0.0),
            ("client-2", 140.0, 0.9),
        ):
            scenario.add_client(
                name,
                QoSSpec(scenario.config.service, deadline_ms, pc),
                handler_cls=handler_cls,
                num_requests=requests,
            )

    return _scenario_workload(
        ScenarioConfig(seed=seed, keep_samples=True), 2 * requests, add_clients
    )


def _overload_knee(seed: int, scale: float) -> Prepared:
    """The A16 governed stack at the knee (constants of overload_collapse)."""
    requests = _scaled(750, scale)
    config = ScenarioConfig(
        seed=seed,
        num_replicas=a16.NUM_REPLICAS,
        service_mean_ms=a16.SERVICE_MEAN_MS,
        service_sigma_ms=a16.SERVICE_SIGMA_MS,
        service_distribution_factory=lambda host: Normal(
            a16.SERVICE_MEAN_MS, a16.SERVICE_SIGMA_MS
        ),
        response_timeout_factor=3.0,
        overload_config=a16.default_overload_config(),
    )

    def add_clients(scenario: Scenario, handler_cls: type) -> None:
        for index in range(8):
            scenario.add_client(
                f"client-{index + 1}",
                QoSSpec(config.service, a16.DEADLINE_MS, 0.9),
                handler_cls=handler_cls,
                num_requests=requests,
                think_time=Exponential(a16.THINK_MS),
                handler_kwargs={
                    "estimator_factory": lambda repo: QueueScaledEstimator(
                        repo, bin_width_ms=1.0
                    )
                },
            )

    return _scenario_workload(config, 8 * requests, add_clients)


def _fleet_live(seed: int, scale: float) -> Prepared:
    """256 replicas, l=60: the read-heavy use of repository/estimator."""
    requests = _scaled(600, scale)
    config = ScenarioConfig(
        seed=seed,
        num_replicas=256,
        window_size=60,
        service_mean_ms=20.0,
        service_sigma_ms=5.0,
    )

    def add_clients(scenario: Scenario, handler_cls: type) -> None:
        for index in range(4):
            scenario.add_client(
                f"client-{index + 1}",
                QoSSpec(config.service, 100.0, 0.9),
                handler_cls=handler_cls,
                num_requests=requests,
                think_time=Exponential(20.0),
            )

    return _scenario_workload(config, 4 * requests, add_clients)


def _chaos_campaign(seed: int, scale: float) -> Prepared:
    """A17: cold five-replica stacks under composed fault schedules."""
    config = CampaignConfig(schedules=_scaled(100, scale), base_seed=seed)
    # ~96 requests per schedule (2 x 25 closed-loop plus surge traffic).
    books = Books(mark_every=max(1, 96 * config.schedules // SEGMENTS))
    handler_cls = books.handler_class()
    results: List[Any] = []

    def run() -> None:
        # The whole call is the region: users pay stack build, schedule
        # draw and audit on every schedule.
        results.append(run_campaign(config, workers=1, handler_cls=handler_cls))

    def finish() -> None:
        (result,) = results
        books.sim.update(
            schedules=len(result.outcomes),
            failed_schedules=len(result.failures),
            digest=result.digest,
            audited_submitted=sum(o.submitted for o in result.outcomes),
            audited_replies=sum(o.replies for o in result.outcomes),
        )
        for outcome in result.failures:
            books.problems.append(f"schedule #{outcome.index}: {outcome.replay}")
        if (
            seed == 0
            and scale == 1.0
            and not result.digest.startswith(CHAOS_DIGEST_SEED0)
        ):
            books.problems.append(
                f"campaign digest {result.digest[:16]} != pinned {CHAOS_DIGEST_SEED0}"
            )

    return Prepared(books, run, finish)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper_idle", 2, _paper_idle),
        Workload("overload_knee", 8, _overload_knee),
        Workload("fleet_live", 4, _fleet_live),
        Workload("chaos_campaign", 2, _chaos_campaign),
    )
}
