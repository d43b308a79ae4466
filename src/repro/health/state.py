"""Health states, configuration, and events for the replica health subsystem.

The paper's timing fault handler *measures* deadline misses and reports
them to the dependability manager (§5.4), but nothing in the base design
changes behavior when a replica goes persistently bad: a replica that
stops replying also stops producing performance updates, so its sliding
windows freeze at their last (possibly excellent) values and the model
keeps trusting a dead replica — *model starvation*.  The health subsystem
closes that loop with a small per-replica state machine:

::

            consecutive faults            further faults
    HEALTHY ────────────────► SUSPECTED ────────────────► QUARANTINED
       ▲                          │                            │
       │  consecutive successes   │                            │ probe
       ◄──────────────────────────┘                            │ success
       │                                                       ▼
       └───────────────────◄──── PROBATION ◄───────────────────┘
           probe / reply                │ any fault
           successes                    └────────► QUARANTINED (backoff ×2)

* **HEALTHY** — full trust; ``F_{R_i}(t)`` used as-is.
* **SUSPECTED** — a streak of timing/omission faults; the replica keeps
  receiving (discounted) traffic and is actively probed so the streak can
  resolve either way even if selection stops routing to it.
* **QUARANTINED** — no client traffic at all (auditor-enforced); probed
  on an exponential backoff until a probe gets through.
* **PROBATION** — probes go through again; two consecutive successes
  re-admit the replica, any fault re-quarantines it with a doubled
  backoff.

A crash declaration from the failure detector quarantines immediately —
the group layer will usually evict the member too, but the detector's
confirmation latency means the health view can act first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Literal, Optional

__all__ = ["FaultKind", "HealthState", "HealthConfig", "HealthEvent"]

#: Consecutive faults that demote HEALTHY → SUSPECTED.
SUSPECT_AFTER = 2
#: *Further* consecutive faults that demote SUSPECTED → QUARANTINED.
QUARANTINE_AFTER = 1
#: Consecutive request successes that promote SUSPECTED → HEALTHY.
RECOVER_AFTER = 2
#: Consecutive successes (probe or request) that promote PROBATION →
#: HEALTHY; the admitting evidence counts as the first.
PROBATION_AFTER = 2
#: Multipliers applied to ``F_{R_i}(t)`` while SUSPECTED / in PROBATION
#: (quarantined replicas are excluded outright).
SUSPECTED_DISCOUNT = 0.5
PROBATION_DISCOUNT = 0.7
#: Every failed re-admission probe multiplies the gap by this factor ...
BACKOFF_FACTOR = 2.0
#: ... up to this many times ``backoff_initial_ms``.
BACKOFF_MAX_MULTIPLE = 8
#: Absolute slack of the clock-coherence tests (float residue), ms.
CLOCK_SLACK_MS = 1.0


#: The closed set of fault evidence kinds the monitor accepts.  A
#: ``Literal`` rather than an enum so call sites keep passing the plain
#: strings they always did (``record_fault(name, now, kind="omission")``)
#: while mypy rejects any kind outside the set.
FaultKind = Literal["timing", "omission", "crash", "probe-failure", "clock"]


class HealthState(enum.Enum):
    """The four trust levels of the per-replica state machine."""

    HEALTHY = "healthy"
    SUSPECTED = "suspected"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass(frozen=True)
class HealthEvent:
    """One state transition, as kept in ``HealthMonitor.events``."""

    replica: str
    old_state: HealthState
    new_state: HealthState
    at_ms: float
    #: What triggered the transition ("timing", "omission", "crash",
    #: "probe-failure", "probe-success", "success", ...).
    reason: str


@dataclass(frozen=True)
class HealthConfig:
    """The settings that differ between health-enabled deployments.

    The state machine's thresholds and discounts are the module
    constants above.

    Parameters
    ----------
    backoff_initial_ms:
        Re-admission probe backoff: the first probe goes out this long
        after quarantine entry; every failed probe multiplies the gap by
        :data:`BACKOFF_FACTOR`, capped at :data:`BACKOFF_MAX_MULTIPLE` ×
        this (:attr:`backoff_max_ms`).  A PROBATION → QUARANTINED bounce
        keeps (and escalates) the previous backoff instead of resetting
        it.
    adaptive_timeout_quantile:
        Quantile of the predicted ``R_i`` pmf the engine's adaptive
        response timeout waits for (``None`` keeps the fixed
        ``response_timeout_factor × deadline`` even with health on).
    unreachable_after:
        Consecutive *reply-loss* faults (omissions and probe failures —
        never timing faults, a late reply is still contact) that
        quarantine a replica directly with reason ``"unreachable"``,
        skipping SUSPECTED.  Distinguishes a partitioned replica from a
        merely slow one: grey failures keep answering probes, which
        resets the streak, so only true silence takes the fast path.
        ``None`` (the default) disables the shortcut.
    clock_anomaly_after:
        Consecutive incoherent performance reports (timestamps that are
        physically impossible against the gateway's own round-trip
        measurements) that quarantine a replica directly with reason
        ``"clock_fault"``.  A coherent report resets the streak, so an
        isolated straggler sample never quarantines.  ``None`` (the
        default) disables clock-sanity quarantine; the handler's
        inflation rejection (reported intervals exceeding the whole
        round trip) stays on regardless.
    clock_deflation_factor:
        The deflation test the handler runs when clock sanity is on: a
        report claiming near-zero server time while the implied
        gateway-side delay exceeds ``clock_deflation_factor`` × the
        probed round trip (plus :data:`CLOCK_SLACK_MS`) is incoherent.
    """

    backoff_initial_ms: float = 1000.0
    adaptive_timeout_quantile: Optional[float] = 0.99
    unreachable_after: Optional[int] = None
    clock_anomaly_after: Optional[int] = None
    clock_deflation_factor: float = 6.0

    def __post_init__(self) -> None:
        if self.backoff_initial_ms <= 0:
            raise ValueError(
                f"backoff_initial_ms must be > 0, got {self.backoff_initial_ms}"
            )
        if self.adaptive_timeout_quantile is not None and not (
            0.0 < self.adaptive_timeout_quantile <= 1.0
        ):
            raise ValueError(
                "adaptive_timeout_quantile must be in (0, 1], got "
                f"{self.adaptive_timeout_quantile}"
            )
        if self.unreachable_after is not None and self.unreachable_after < 1:
            raise ValueError(
                f"unreachable_after must be >= 1, got {self.unreachable_after}"
            )
        if self.clock_anomaly_after is not None and self.clock_anomaly_after < 1:
            raise ValueError(
                f"clock_anomaly_after must be >= 1, got {self.clock_anomaly_after}"
            )
        if self.clock_deflation_factor < 1.0:
            raise ValueError(
                "clock_deflation_factor must be >= 1, got "
                f"{self.clock_deflation_factor}"
            )

    @property
    def backoff_max_ms(self) -> float:
        """Upper bound on any re-admission probe gap."""
        return BACKOFF_MAX_MULTIPLE * self.backoff_initial_ms
