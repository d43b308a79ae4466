"""Fault schedules: declarative descriptions of hostile conditions.

A :class:`FaultSchedule` bundles the nine fault families the request path
must survive (paper §3's "occasional periods of high traffic" plus the
crash and churn behaviours of §5.3.2, and the planes added since):

* **message drops** (:class:`DropRule`) — omission faults on the wire,
* **delay spikes** (:class:`DelayRule`) — transient congestion,
* **duplicated / late replies** (:class:`DuplicateRule`) — retransmitting
  networks and slow paths,
* **crash + restart** (:class:`CrashRestartFault`) — fail-stop replicas,
  optionally coming back as a fresh incarnation,
* **view churn** (:class:`ChurnFault`) — graceful leaves/rejoins that
  reshape the membership view under traffic,
* **persistent degradation** (:class:`DegradationFault`) — a live host
  that slows down or drops its traffic,
* **overload surges** (:class:`OverloadFault`) — open-loop flash crowds,
* **network partitions** (:class:`~repro.faultinject.partition.PartitionFault`)
  — split-brain, one-way and grey connectivity cuts,
* **clock faults** (:class:`~repro.faultinject.clock.ClockFault`) —
  skew/drift/step/freeze/jitter on a host's virtual clock.

Rules are pure data; a deployment's one
:class:`~repro.faultinject.plane.FaultPlane` applies them (the
message-level ones through :class:`~repro.faultinject.transport
.FaultyTransport`).  :func:`random_fault_schedule` draws a randomized
schedule from an :class:`~repro.rng.RNGManager`, one named substream per
fault window — the workhorse of the ``tests/faults`` suite and the
chaos campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..net.message import Message
from ..rng import RNGManager
from .clock import CLOCK_FAULT_KINDS, ClockFault
from .partition import PROBE_EXEMPT_KINDS, PartitionFault

__all__ = [
    "DropRule",
    "DelayRule",
    "DuplicateRule",
    "CrashRestartFault",
    "ChurnFault",
    "DegradationFault",
    "OverloadFault",
    "PartitionFault",
    "ClockFault",
    "FaultSchedule",
    "FAMILIES",
    "random_fault_schedule",
]


def _window_ok(start_ms: float, end_ms: float) -> None:
    if start_ms < 0:
        raise ValueError(f"start_ms must be >= 0, got {start_ms}")
    if end_ms <= start_ms:
        raise ValueError(
            f"end_ms must exceed start_ms, got [{start_ms}, {end_ms}]"
        )


@dataclass(frozen=True)
class _MessageRule:
    """Shared shape of the message-level rules: a time window plus filters.

    ``kinds``/``src``/``dst`` of ``None`` match everything; otherwise the
    message's kind / sender / destination must match exactly.
    """

    start_ms: float
    end_ms: float
    kinds: Optional[Tuple[str, ...]] = None
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        _window_ok(self.start_ms, self.end_ms)

    def matches(self, now_ms: float, message: Message) -> bool:
        """Whether the rule applies to ``message`` sent at ``now_ms``."""
        if not self.start_ms <= now_ms < self.end_ms:
            return False
        if self.kinds is not None and message.kind not in self.kinds:
            return False
        if self.src is not None and message.sender != self.src:
            return False
        if self.dst is not None and message.destination != self.dst:
            return False
        return True


@dataclass(frozen=True)
class DropRule(_MessageRule):
    """Silently lose matching messages with ``probability``."""

    probability: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class DelayRule(_MessageRule):
    """Hold matching messages back by ``extra_ms`` before transmission."""

    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_ms < 0:
            raise ValueError(f"extra_ms must be >= 0, got {self.extra_ms}")


@dataclass(frozen=True)
class DuplicateRule(_MessageRule):
    """Deliver ``copies`` extra copies of matching messages, each sent
    ``late_by_ms`` after the original (a late duplicate models both a
    retransmitting network and a reply outliving its request)."""

    probability: float = 1.0
    copies: int = 1
    late_by_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if self.late_by_ms < 0:
            raise ValueError(f"late_by_ms must be >= 0, got {self.late_by_ms}")


@dataclass(frozen=True)
class CrashRestartFault:
    """Fail-stop ``host`` at ``crash_at_ms``; restart it if requested."""

    host: str
    crash_at_ms: float
    restart_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.crash_at_ms < 0:
            raise ValueError(f"crash_at_ms must be >= 0, got {self.crash_at_ms}")
        if self.restart_at_ms is not None and self.restart_at_ms <= self.crash_at_ms:
            raise ValueError("restart must come strictly after the crash")


@dataclass(frozen=True)
class ChurnFault:
    """Gracefully remove ``member`` from the view; rejoin it if requested."""

    member: str
    leave_at_ms: float
    rejoin_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.leave_at_ms < 0:
            raise ValueError(f"leave_at_ms must be >= 0, got {self.leave_at_ms}")
        if self.rejoin_at_ms is not None and self.rejoin_at_ms <= self.leave_at_ms:
            raise ValueError("rejoin must come strictly after the leave")


@dataclass(frozen=True)
class DegradationFault:
    """Persistently degrade ``host`` over a time window (not fail-stop).

    The replica keeps running but gets worse — the health subsystem's
    nemesis: a crashed host is evicted by the failure detector, while a
    degraded one stays in the view and keeps poisoning the model.

    * ``slow_factor`` multiplies its service durations (load/overheat);
      the :class:`~repro.faultinject.plane.FaultPlane` applies it by
      wrapping the replica's service profile.
    * ``omission_probability`` drops messages to/from the host on the
      wire (dying NIC); interpreted by
      :class:`~repro.faultinject.transport.FaultyTransport`.
    """

    host: str
    start_ms: float
    end_ms: float
    slow_factor: float = 1.0
    omission_probability: float = 0.0

    def __post_init__(self) -> None:
        _window_ok(self.start_ms, self.end_ms)
        if self.slow_factor < 1.0:
            raise ValueError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if not 0.0 <= self.omission_probability <= 1.0:
            raise ValueError(
                "omission_probability must be in [0, 1], got "
                f"{self.omission_probability}"
            )
        # Default-detection on user-set config values, never on computed
        # floats — exact equality is the point.
        if self.slow_factor == 1.0 and self.omission_probability == 0.0:  # repro-lint: disable=RL003 (config default detection)
            raise ValueError(
                "degradation must slow the host or drop its messages"
            )

    def active(self, now_ms: float) -> bool:
        """Whether the window covers ``now_ms``."""
        return self.start_ms <= now_ms < self.end_ms


@dataclass(frozen=True)
class OverloadFault:
    """A flash crowd: an arrival surge over a time window (paper §3's
    "occasional periods of high traffic", turned hostile).

    During ``[start_ms, end_ms)`` the
    :class:`~repro.faultinject.plane.FaultPlane` fires extra requests
    through the bound clients' stubs every
    ``surge_interarrival_ms`` — open-loop, so the offered load does not
    shrink when the service slows down (the condition that triggers the
    redundancy→load feedback loop the overload subsystem must break).

    ``clients`` limits the surge to those client hosts; empty means every
    bound client surges.
    """

    start_ms: float
    end_ms: float
    surge_interarrival_ms: float = 5.0
    clients: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _window_ok(self.start_ms, self.end_ms)
        if self.surge_interarrival_ms <= 0:
            raise ValueError(
                "surge_interarrival_ms must be > 0, got "
                f"{self.surge_interarrival_ms}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """A full scripted fault scenario; all families default to empty."""

    drops: Tuple[DropRule, ...] = ()
    delays: Tuple[DelayRule, ...] = ()
    duplicates: Tuple[DuplicateRule, ...] = ()
    crashes: Tuple[CrashRestartFault, ...] = ()
    churn: Tuple[ChurnFault, ...] = ()
    degradations: Tuple[DegradationFault, ...] = ()
    overloads: Tuple[OverloadFault, ...] = ()
    partitions: Tuple[PartitionFault, ...] = ()
    clocks: Tuple[ClockFault, ...] = ()

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """Union of two schedules (composable scenarios)."""
        return FaultSchedule(
            **{
                family: getattr(self, family) + getattr(other, family)
                for family in FAMILIES
            }
        )

    def __len__(self) -> int:
        return sum(len(getattr(self, family)) for family in FAMILIES)

    def __repr__(self) -> str:
        # Hand-rolled, and frozen: schedule digests (every campaign
        # replay line, the A17 digest) are sha256 over this repr, which
        # omits the two newest families while they are empty.
        parts = [
            f"drops={self.drops!r}",
            f"delays={self.delays!r}",
            f"duplicates={self.duplicates!r}",
            f"crashes={self.crashes!r}",
            f"churn={self.churn!r}",
            f"degradations={self.degradations!r}",
            f"overloads={self.overloads!r}",
        ]
        if self.partitions:
            parts.append(f"partitions={self.partitions!r}")
        if self.clocks:
            parts.append(f"clocks={self.clocks!r}")
        return f"FaultSchedule({', '.join(parts)})"


#: The nine family names, in :class:`FaultSchedule` field order — the one
#: list merging, counting, flattening and the generator iterate over.
FAMILIES: Tuple[str, ...] = tuple(f.name for f in fields(FaultSchedule))

# What a randomized schedule draws with: constants, not keywords, because
# every pinned schedule digest is for exactly these values.
#: Share of the horizon one window covers (scaled 0.5-1.5x per draw).
WINDOW_FRACTION = 0.15
#: Per-message loss probability inside a drop window.
DROP_PROBABILITY = 0.3
#: Upper bound of a delay window's extra delay.
MAX_EXTRA_MS = 40.0
#: Per-message duplication probability inside a duplicate window.
DUPLICATE_PROBABILITY = 0.5
#: Upper bound of how late a duplicate copy is sent.
MAX_LATE_BY_MS = 60.0
#: Upper bound of a degradation's service-time multiplier.
MAX_SLOW_FACTOR = 4.0
#: Per-message loss probability at a degraded host's NIC.
DEGRADATION_OMISSION_PROBABILITY = 0.7
#: Probability that a partition flaps / is a grey (probe-passing) cut.
PARTITION_FLAP_PROBABILITY = 0.25
PARTITION_GREY_PROBABILITY = 0.2
#: Upper bounds of a clock window's skew/step and drift magnitudes.
MAX_CLOCK_SKEW_MS = 200.0
MAX_CLOCK_DRIFT_PPM = 800.0


def _draw_window(
    rng: np.random.Generator, horizon_ms: float
) -> Tuple[float, float]:
    length = max(1.0, WINDOW_FRACTION * horizon_ms * rng.uniform(0.5, 1.5))
    start = rng.uniform(0.0, max(1.0, horizon_ms - length))
    return start, start + length


def _draw_drained_window(
    rng: np.random.Generator, horizon_ms: float
) -> Tuple[float, float]:
    # A window guaranteed to end by 85% of the horizon, so the run can
    # recover/drain before the lifecycle audit.
    start, end = _draw_window(rng, horizon_ms)
    end = min(end, horizon_ms * 0.85)
    if end <= start:
        start = max(0.0, end - max(1.0, WINDOW_FRACTION * horizon_ms))
    return start, end


def _draw_host_window(
    rng: np.random.Generator,
    replicas: Sequence[str],
    horizon_ms: float,
) -> Tuple[str, float, float]:
    # Shared shape of crash and churn events: pick a host, a start in the
    # first 80% of the horizon, and a recovery 5–15% of the horizon later.
    host = str(rng.choice(list(replicas)))
    at = rng.uniform(0.0, horizon_ms * 0.8)
    back_at = at + rng.uniform(horizon_ms * 0.05, horizon_ms * 0.15)
    return host, at, back_at


# One draw function per family, all ``(rng, replicas, horizon_ms)``.  The
# order of the draws inside each is frozen: schedule digests sit on it.

def _draw_drop(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> DropRule:
    start, end = _draw_window(rng, horizon_ms)
    return DropRule(start_ms=start, end_ms=end, probability=DROP_PROBABILITY)


def _draw_delay(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> DelayRule:
    start, end = _draw_window(rng, horizon_ms)
    return DelayRule(
        start_ms=start, end_ms=end, extra_ms=rng.uniform(1.0, MAX_EXTRA_MS)
    )


def _draw_duplicate(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> DuplicateRule:
    start, end = _draw_window(rng, horizon_ms)
    return DuplicateRule(
        start_ms=start,
        end_ms=end,
        probability=DUPLICATE_PROBABILITY,
        copies=int(rng.integers(1, 3)),
        late_by_ms=rng.uniform(0.0, MAX_LATE_BY_MS),
    )


def _draw_crash(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> CrashRestartFault:
    host, crash_at, restart_at = _draw_host_window(rng, replicas, horizon_ms)
    return CrashRestartFault(
        host=host, crash_at_ms=crash_at, restart_at_ms=restart_at
    )


def _draw_churn(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> ChurnFault:
    member, leave_at, rejoin_at = _draw_host_window(rng, replicas, horizon_ms)
    return ChurnFault(
        member=member, leave_at_ms=leave_at, rejoin_at_ms=rejoin_at
    )


def _draw_degradation(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> DegradationFault:
    host = str(rng.choice(list(replicas)))
    start, end = _draw_drained_window(rng, horizon_ms)
    return DegradationFault(
        host=host,
        start_ms=start,
        end_ms=end,
        slow_factor=float(rng.uniform(1.5, MAX_SLOW_FACTOR)),
        omission_probability=DEGRADATION_OMISSION_PROBABILITY,
    )


def _draw_partition(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> PartitionFault:
    # One randomized cut: a replica subset goes dark from everyone else.
    # Drained window — every cut heals by 85% of the horizon.
    start, end = _draw_drained_window(rng, horizon_ms)
    pool = list(replicas)
    size = int(rng.integers(1, max(2, len(pool) // 2 + 1)))
    side = tuple(
        str(h) for h in rng.choice(pool, size=size, replace=False)
    )
    modes = ("symmetric", "outbound", "inbound")
    mode = modes[int(rng.integers(0, 3))]
    flap_period: Optional[float] = None
    if rng.random() < PARTITION_FLAP_PROBABILITY:
        flap_period = float(
            rng.uniform(horizon_ms * 0.02, horizon_ms * 0.08)
        )
    exempt = (
        PROBE_EXEMPT_KINDS if rng.random() < PARTITION_GREY_PROBABILITY else ()
    )
    return PartitionFault(
        side=side,
        start_ms=start,
        end_ms=end,
        mode=mode,
        flap_period_ms=flap_period,
        exempt_kinds=exempt,
    )


def _draw_clock_fault(
    rng: np.random.Generator, replicas: Sequence[str], horizon_ms: float
) -> ClockFault:
    # One randomized clock window: pick a host, a drained window, a kind
    # and a signed magnitude.  The sign is drawn for every kind so the
    # per-window draw sequence stays uniform across kinds.
    host = str(rng.choice(list(replicas)))
    start, end = _draw_drained_window(rng, horizon_ms)
    kind = CLOCK_FAULT_KINDS[int(rng.integers(0, len(CLOCK_FAULT_KINDS)))]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if kind == "skew":
        return ClockFault(
            host=host, start_ms=start, end_ms=end, kind=kind,
            offset_ms=sign * float(rng.uniform(1.0, MAX_CLOCK_SKEW_MS)),
        )
    if kind == "drift":
        return ClockFault(
            host=host, start_ms=start, end_ms=end, kind=kind,
            drift_ppm=sign * float(rng.uniform(50.0, MAX_CLOCK_DRIFT_PPM)),
        )
    if kind == "step":
        return ClockFault(
            host=host, start_ms=start, end_ms=end, kind=kind,
            step_ms=sign * float(rng.uniform(1.0, MAX_CLOCK_SKEW_MS)),
        )
    if kind == "freeze":
        return ClockFault(host=host, start_ms=start, end_ms=end, kind=kind)
    return ClockFault(
        host=host, start_ms=start, end_ms=end, kind="jitter",
        jitter_ms=float(rng.uniform(0.5, max(1.0, MAX_CLOCK_SKEW_MS / 4.0))),
    )


def random_fault_schedule(
    streams: RNGManager,
    horizon_ms: float,
    replicas: Sequence[str],
    drop_windows: int = 3,
    delay_windows: int = 2,
    duplicate_windows: int = 2,
    crash_restarts: int = 2,
    churn_events: int = 2,
    degradations: int = 0,
    overload_windows: int = 0,
    partition_windows: int = 0,
    clock_windows: int = 0,
    surge_interarrival_ms: float = 5.0,
) -> FaultSchedule:
    """Draw a randomized schedule over ``[0, horizon_ms)``.

    Message-level windows cover about :data:`WINDOW_FRACTION` of the
    horizon each; crashes always restart and churned members always
    rejoin, so a long-enough run converges back to the full view (the
    property the lifecycle auditor's drain-time invariants rely on).
    Degradation, overload, partition and clock windows always end by 85%
    of the horizon, so a drained run has recovered.

    Each fault window draws from its own named substream of ``streams``
    — ``("faults.<family>", i)`` for window ``i`` of ``<family>`` — so
    every window is independent of every other: changing any family's
    window count, or adding an entirely new fault family, never perturbs
    the windows other families draw (docs/REPRODUCIBILITY.md).
    """
    if horizon_ms <= 0:
        raise ValueError(f"horizon_ms must be > 0, got {horizon_ms}")
    if not replicas:
        raise ValueError("need at least one replica to inject faults into")

    def draw_overload(
        rng: np.random.Generator, _replicas: Sequence[str], horizon_ms: float
    ) -> OverloadFault:
        start, end = _draw_drained_window(rng, horizon_ms)
        return OverloadFault(
            start_ms=start,
            end_ms=end,
            surge_interarrival_ms=surge_interarrival_ms,
        )

    # family -> (substream key, window count, draw); the two newest
    # families' substream keys are singular, and frozen.
    table: Dict[str, Tuple[str, int, Callable[..., Any]]] = {
        "drops": ("drops", drop_windows, _draw_drop),
        "delays": ("delays", delay_windows, _draw_delay),
        "duplicates": ("duplicates", duplicate_windows, _draw_duplicate),
        "crashes": ("crashes", crash_restarts, _draw_crash),
        "churn": ("churn", churn_events, _draw_churn),
        "degradations": ("degradations", degradations, _draw_degradation),
        "overloads": ("overloads", overload_windows, draw_overload),
        "partitions": ("partition", partition_windows, _draw_partition),
        "clocks": ("clock", clock_windows, _draw_clock_fault),
    }
    return FaultSchedule(
        **{
            family: tuple(
                draw(streams.substream(f"faults.{key}", i), replicas, horizon_ms)
                for i in range(count)
            )
            for family, (key, count, draw) in table.items()
        }
    )
