"""The chaos-campaign engine: randomized composed schedules at scale.

One scenario of the ``tests/faults`` suite scripts a handful of faults by
hand.  A *campaign* instead draws hundreds of randomized **composed**
schedules — partitions × crashes × degradations × overload surges, each
family from its own disjoint RNG substream — runs every schedule against
a fresh deployment, and checks two things per scenario:

* the drain-time lifecycle invariants of
  :class:`~repro.faultinject.auditor.LifecycleAuditor` (exactly-once
  completion, no leaks, no resurrection, idle servers, no acks from the
  dark side of a cut), and
* campaign-level QoS floors (a minimum reply fraction and a minimum
  timely fraction) that catch silent service collapse the invariants
  cannot see.

Scenarios fan out across worker processes through
:func:`repro.experiments.parallel.run_sweep`, inheriting its 1-vs-N
worker bit-identical merge.  Every scenario's randomness is a pure
function of ``(campaign base seed, scenario index)``, so any failure is
replayable from the one-line recipe embedded in its report — and
:func:`shrink_schedule` (classic ddmin) minimizes a failing schedule to
the smallest fault subset that still reproduces the failure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..engine import ReplyOutcome
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..health import HealthConfig
from ..net.message import reset_message_ids
from ..rng import RNGManager, derive_entity_seed
from ..sim.random import Constant
from .schedule import FAMILIES, FaultSchedule, random_fault_schedule

if TYPE_CHECKING:
    from ..workload.ministack import MiniStack

__all__ = [
    "CampaignConfig",
    "ScheduleOutcome",
    "CampaignResult",
    "schedule_digest",
    "draw_composed_schedule",
    "run_scenario",
    "run_campaign",
    "flatten_schedule",
    "rebuild_schedule",
    "shrink_schedule",
]

METHOD = "process"

# One scenario's deployment and workload: constants, not config fields,
# because every published campaign digest is for exactly these values.
#: Replica and client host names of every scenario deployment.
REPLICA_HOSTS = tuple(f"s-{i + 1}" for i in range(5))
CLIENT_HOSTS = ("client-1", "client-2")
#: Faults are drawn over [0, HORIZON_MS); the run settles until twice that.
HORIZON_MS = 3000.0
#: Each client's closed loop: requests, think time, QoS; replica service time.
REQUESTS_PER_CLIENT = 25
THINK_MS = 4.0
DEADLINE_MS = 100.0
MIN_PROBABILITY = 0.0
SERVICE_MS = 8.0
#: Cap of each family's window count in a composed schedule, keyed by
#: :func:`random_fault_schedule`'s keyword, in ``campaign.mix`` draw order
#: (frozen: schedule digests sit on it).  The clock family's cap is the
#: one per-campaign setting and is drawn last.
MAX_WINDOWS = {
    "drop_windows": 2,
    "delay_windows": 2,
    "duplicate_windows": 2,
    "crash_restarts": 2,
    "churn_events": 1,
    "degradations": 1,
    "overload_windows": 1,
    "partition_windows": 2,
}
#: Gap between a surging client's open-loop requests.
SURGE_INTERARRIVAL_MS = 10.0
#: Campaign-level QoS floors: a scenario below either counts as failed
#: even when every lifecycle invariant held.
MIN_REPLY_FRACTION = 0.3
MIN_TIMELY_FRACTION = 0.05


@dataclass(frozen=True)
class CampaignConfig:
    """What distinguishes one chaos campaign from another (picklable).

    ``max_clock_windows`` caps the opt-in clock family (0 keeps the
    historic digests); each family's actual count is drawn uniformly in
    ``[0, cap]`` from the scenario's own ``campaign.mix`` substream, so
    scenarios range from calm to everything-at-once.
    """

    schedules: int = 200
    base_seed: int = 0
    max_clock_windows: int = 0

    def __post_init__(self) -> None:
        if self.schedules < 1:
            raise ValueError(f"schedules must be >= 1, got {self.schedules}")

    # -- per-scenario seed derivation ---------------------------------------
    def scenario_seed(self, index: int) -> int:
        """Seed for scenario ``index``'s deployment streams."""
        return derive_entity_seed(self.base_seed, "chaos.scenario", index, 0)

    def wire_seed(self, index: int) -> int:
        """Seed for scenario ``index``'s fault-injection draws."""
        return derive_entity_seed(self.base_seed, "chaos.wire", index, 0)

    def schedule_seed(self, index: int) -> int:
        """Seed for scenario ``index``'s composed-schedule drawing."""
        return derive_entity_seed(self.base_seed, "chaos.schedule", index, 0)

    def replay_line(self, index: int, digest: str) -> str:
        """The one-line recipe that reruns scenario ``index`` exactly.

        Non-default schedule knobs that change what the scenario seed
        draws must ride along, or the replay draws a different schedule
        and dies on the digest check: today that is only the opt-in
        clock-fault family.
        """
        line = (
            "python -m repro.experiments.chaos_campaign "
            f"--replay {self.base_seed}:{index}:{digest[:12]}"
        )
        if self.max_clock_windows:
            line += f" --clock-windows {self.max_clock_windows}"
        return line


def schedule_digest(schedule: FaultSchedule) -> str:
    """Content hash of a schedule (its repr is canonical pure data)."""
    return hashlib.sha256(repr(schedule).encode("utf-8")).hexdigest()


def draw_composed_schedule(cfg: CampaignConfig, index: int) -> FaultSchedule:
    """Draw scenario ``index``'s composed randomized schedule.

    Family counts come from the dedicated ``campaign.mix`` substream;
    the windows themselves from :func:`random_fault_schedule`'s
    per-family ``("faults.<family>", i)`` substreams.  Everything is a
    pure function of ``(cfg.base_seed, index)``.
    """
    manager = RNGManager(cfg.schedule_seed(index))
    mix = manager.substream("campaign.mix", 0)
    caps = {**MAX_WINDOWS, "clock_windows": cfg.max_clock_windows}
    return random_fault_schedule(
        manager,
        horizon_ms=HORIZON_MS,
        replicas=REPLICA_HOSTS,
        surge_interarrival_ms=SURGE_INTERARRIVAL_MS,
        **{
            keyword: int(mix.integers(0, cap + 1))
            for keyword, cap in caps.items()
        },
    )


@dataclass(frozen=True)
class ScheduleOutcome:
    """Everything one scenario run produced (digest-stable pure data)."""

    index: int
    scenario_seed: int
    wire_seed: int
    digest: str
    submitted: int
    replies: int
    timeouts: int
    sheds: int
    reply_fraction: float
    timely_fraction: float
    violations: Tuple[str, ...]
    replay: str

    @property
    def failed(self) -> bool:
        """Whether the scenario violated an invariant or a QoS floor."""
        return bool(self.violations)


@dataclass(frozen=True)
class CampaignResult:
    """Merged outcome of a whole campaign."""

    config: CampaignConfig
    outcomes: Tuple[ScheduleOutcome, ...]
    digest: str
    workers: int
    elapsed_s: float

    @property
    def failures(self) -> Tuple[ScheduleOutcome, ...]:
        """The failed scenarios, in index order."""
        return tuple(o for o in self.outcomes if o.failed)

    @property
    def clean(self) -> bool:
        """Whether every scenario passed."""
        return not self.failures


_HEALTH = HealthConfig(
    backoff_initial_ms=200.0, unreachable_after=3, clock_anomaly_after=3
)


def _build_stack(
    schedule: FaultSchedule,
    scenario_seed: int,
    wire_seed: int,
    handler_cls: type,
) -> "MiniStack":
    """One scenario's deployment, with ``schedule`` applied."""
    # Imported here, not at module scope: the workload package imports
    # the auditor, and a module-level import would close an import cycle
    # through the faultinject package __init__.
    from ..workload.ministack import MiniStack

    stack = MiniStack(seed=scenario_seed, faulty_wire=True, wire_seed=wire_seed)
    # Observe from the first client, so a partition evicts like a crash.
    stack.detector.vantage = CLIENT_HOSTS[0]
    for host in REPLICA_HOSTS:
        stack.add_server(host, service_time=Constant(SERVICE_MS))
    for host in CLIENT_HOSTS:
        stack.add_client(
            host,
            deadline_ms=DEADLINE_MS,
            min_probability=MIN_PROBABILITY,
            handler_cls=handler_cls,
            response_timeout_factor=3.0,
            probe_interval_ms=50.0,
            health_config=_HEALTH,
        )
    stack.faults.apply(schedule)
    return stack


def _closed_loop(
    stack: "MiniStack",
    host: str,
    outcomes: List[ReplyOutcome],
) -> Any:
    stub = stack.stubs[host]
    for i in range(REQUESTS_PER_CLIENT):
        outcomes.append((yield stub.invoke(METHOD, i)))
        yield stack.sim.timeout(THINK_MS)


def run_scenario(
    cfg: CampaignConfig,
    index: int,
    handler_cls: type = TimingFaultClientHandler,
    schedule: Optional[FaultSchedule] = None,
) -> ScheduleOutcome:
    """Run scenario ``index`` of a campaign and audit it.

    ``schedule`` overrides the drawn schedule (the shrinker's entry
    point); everything else — deployment seeds, workload, floors — stays
    exactly as the campaign would have run it.
    """
    # Message ids restart per scenario so every id a report mentions is a
    # pure function of (base_seed, index) — never of which worker process
    # (or how many earlier scenarios) produced the run.
    reset_message_ids()
    if schedule is None:
        schedule = draw_composed_schedule(cfg, index)
    digest = schedule_digest(schedule)
    replay = cfg.replay_line(index, digest)
    stack = _build_stack(
        schedule,
        scenario_seed=cfg.scenario_seed(index),
        wire_seed=cfg.wire_seed(index),
        handler_cls=handler_cls,
    )
    stack.auditor.set_replay(replay)
    outcomes: List[ReplyOutcome] = []
    for host in CLIENT_HOSTS:
        stack.sim.spawn(
            _closed_loop(stack, host, outcomes), name=f"load.{host}"
        )
    stack.sim.run()
    # Let detector polls / re-admission probes settle past the horizon so
    # every fault window has healed before the audit, then expire probes
    # still in flight (staleness probing never stops, so an arbitrary
    # cutoff would otherwise race the daemon expiry timers).
    stack.sim.run(until=max(stack.sim.now, HORIZON_MS * 2.0))
    for host in CLIENT_HOSTS:
        stack.clients[host].quiesce_probes()
    report = stack.auditor.audit()

    violations = list(report.violations)
    served = report.submitted - report.sheds
    reply_fraction = report.replies / served if served else 1.0
    timely = [o.timely for o in outcomes if not o.shed]
    timely_fraction = (
        sum(timely) / len(timely) if timely else 1.0
    )
    if reply_fraction < MIN_REPLY_FRACTION:
        violations.append(
            f"qos floor: reply fraction {reply_fraction:.3f} < "
            f"{MIN_REPLY_FRACTION} ({replay})"
        )
    if timely_fraction < MIN_TIMELY_FRACTION:
        violations.append(
            f"qos floor: timely fraction {timely_fraction:.3f} < "
            f"{MIN_TIMELY_FRACTION} ({replay})"
        )
    return ScheduleOutcome(
        index=index,
        scenario_seed=cfg.scenario_seed(index),
        wire_seed=cfg.wire_seed(index),
        digest=digest,
        submitted=report.submitted,
        replies=report.replies,
        timeouts=report.timeouts,
        sheds=report.sheds,
        reply_fraction=reply_fraction,
        timely_fraction=timely_fraction,
        violations=tuple(violations),
        replay=replay,
    )


def _campaign_point(params: Any, seed: int, repetition: int) -> ScheduleOutcome:
    """Sweep task: one scenario (module-level for worker pickling).

    The sweep's derived ``seed`` is deliberately unused — every draw of a
    scenario is a pure function of ``(cfg.base_seed, repetition)`` so the
    standalone ``--replay`` path reproduces it without the sweep engine.
    """
    cfg, handler_cls = params
    return run_scenario(cfg, repetition, handler_cls=handler_cls)


def run_campaign(
    cfg: CampaignConfig,
    workers: int = 1,
    handler_cls: type = TimingFaultClientHandler,
) -> CampaignResult:
    """Run the whole campaign, fanned across ``workers`` processes.

    The result digest is bit-identical for any worker count (the
    parallel engine's invariance contract).
    """
    from ..experiments.parallel import run_sweep

    sweep = run_sweep(
        _campaign_point,
        points=[(cfg, handler_cls)],
        repetitions=cfg.schedules,
        base_seed=cfg.base_seed,
        workers=workers,
        stream_name="chaos.campaign",
    )
    outcomes = tuple(sweep.results[i].value for i in range(cfg.schedules))
    return CampaignResult(
        config=cfg,
        outcomes=outcomes,
        digest=sweep.digest(),
        workers=sweep.workers,
        elapsed_s=sweep.elapsed_s,
    )


# -- schedule minimization (delta debugging) --------------------------------

def flatten_schedule(schedule: FaultSchedule) -> List[Tuple[str, Any]]:
    """The schedule as a flat ``(family, fault)`` list, family-ordered."""
    items: List[Tuple[str, Any]] = []
    for family in FAMILIES:
        items.extend((family, fault) for fault in getattr(schedule, family))
    return items


def rebuild_schedule(items: Sequence[Tuple[str, Any]]) -> FaultSchedule:
    """Reassemble a :class:`FaultSchedule` from ``flatten_schedule`` items."""
    grouped: Dict[str, List[Any]] = {family: [] for family in FAMILIES}
    for family, fault in items:
        grouped[family].append(fault)
    return FaultSchedule(
        **{family: tuple(faults) for family, faults in grouped.items()}
    )


#: Reruns :func:`shrink_schedule` spends at most, for pathological schedules.
MAX_PROBES = 512


def shrink_schedule(
    schedule: FaultSchedule, fails: Callable[[FaultSchedule], bool]
) -> FaultSchedule:
    """Minimize ``schedule`` to a 1-minimal failing subset (ddmin).

    ``fails(candidate)`` must rerun the scenario under ``candidate`` and
    report whether the failure still reproduces; it is assumed
    deterministic (the campaign's seed discipline guarantees that).  The
    returned schedule still fails, and removing any single remaining
    fault makes it pass (1-minimality), which is exactly the "minimal
    reproducer" the failure report should point at.
    """
    items = flatten_schedule(schedule)
    if not fails(rebuild_schedule(items)):
        raise ValueError("schedule does not fail; nothing to shrink")
    probes = 0
    granularity = 2
    while len(items) >= 2 and probes < MAX_PROBES:
        chunk = max(1, -(-len(items) // granularity))  # ceil division
        reduced = False
        # Try each chunk alone, then each complement.
        for start in range(0, len(items), chunk):
            subset = items[start:start + chunk]
            if len(subset) == len(items):
                continue
            probes += 1
            if fails(rebuild_schedule(subset)):
                items = subset
                granularity = 2
                reduced = True
                break
        if not reduced:
            for start in range(0, len(items), chunk):
                complement = items[:start] + items[start + chunk:]
                if len(complement) == len(items):
                    continue
                probes += 1
                if fails(rebuild_schedule(complement)):
                    items = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(items), granularity * 2)
    return rebuild_schedule(items)
