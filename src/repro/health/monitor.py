"""The per-replica health monitor driving the state machine of state.py.

One :class:`HealthMonitor` lives inside each client handler that enables
health tracking.  It is deliberately *passive* with respect to time and
transport: every method takes ``now_ms`` explicitly and the monitor never
schedules events or sends messages itself.  The handler feeds it evidence
(reply outcomes, omission timeouts, crash declarations, probe outcomes)
and asks it which replicas are due for a probe; the selection policy asks
it for quarantine membership and trust discounts.  That keeps the state
machine a pure, unit-testable object.

Evidence semantics, chosen to survive the FIFO-queue asymmetry:

* Request successes/faults always count.  A reply that arrives within
  the deadline is a success; a late reply is a "timing" fault; a replica
  that was addressed but never replied before the response timeout is an
  "omission" fault.
* Probe outcomes count only in the states that explicitly seek liveness
  evidence (SUSPECTED, QUARANTINED, PROBATION).  Probes bypass the
  replica's FIFO queue (§8), so a probe success says "alive", not
  "timely" — letting it reset a HEALTHY replica's fault streak would mask
  an overloaded replica behind its own fast probe path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from .state import (
    BACKOFF_FACTOR,
    PROBATION_AFTER,
    PROBATION_DISCOUNT,
    QUARANTINE_AFTER,
    RECOVER_AFTER,
    SUSPECT_AFTER,
    SUSPECTED_DISCOUNT,
    FaultKind,
    HealthConfig,
    HealthEvent,
    HealthState,
)

__all__ = ["ReplicaHealth", "HealthMonitor"]

HealthListener = Callable[[HealthEvent], None]


@dataclass
class ReplicaHealth:
    """Mutable health bookkeeping for one replica."""

    name: str
    state: HealthState = HealthState.HEALTHY
    consecutive_faults: int = 0
    consecutive_successes: int = 0
    #: Consecutive reply-loss faults (omission / probe-failure) with no
    #: intervening contact of any kind — the unreachability evidence.
    consecutive_omissions: int = 0
    #: Consecutive incoherent performance reports (clock-sanity evidence;
    #: a coherent report resets the streak).
    consecutive_clock_anomalies: int = 0
    clock_anomalies: int = 0
    faults_total: int = 0
    successes_total: int = 0
    quarantine_count: int = 0
    #: Current re-admission backoff (meaningful while QUARANTINED).
    backoff_ms: float = 0.0
    #: Absolute time the next re-admission probe is due (QUARANTINED).
    next_probe_at_ms: float = 0.0
    entered_state_at_ms: float = 0.0
    last_fault_kind: Optional[FaultKind] = None


class HealthMonitor:
    """Tracks every replica's health state and probe schedule.

    Parameters
    ----------
    config:
        The deployment's backoff and shortcut settings (the thresholds
        are the constants of :mod:`repro.health.state`).
    listener:
        Optional initial transition listener (more via
        :meth:`add_listener`); the handler wires this to the Proteus
        manager's ``report_health_event`` — the paper's fault-notification
        path to the dependability manager.
    """

    def __init__(
        self,
        config: Optional[HealthConfig] = None,
        listener: Optional[HealthListener] = None,
    ) -> None:
        self.config = config or HealthConfig()
        self._replicas: Dict[str, ReplicaHealth] = {}
        self._listeners: List[HealthListener] = []
        #: Every transition ever emitted, in order (diagnostics/tests).
        self.events: List[HealthEvent] = []
        if listener is not None:
            self.add_listener(listener)

    # -- wiring --------------------------------------------------------------
    def add_listener(self, listener: HealthListener) -> Callable[[], None]:
        """Subscribe to transitions; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def sync_members(self, members: Iterable[str], now_ms: float) -> None:
        """Reconcile tracked replicas with a new group view.

        Departed replicas are dropped outright: a member that later
        rejoins is a fresh incarnation and starts HEALTHY with no fault
        history — mirroring how the repository restarts its windows.
        """
        members = set(members)
        for name in list(self._replicas):
            if name not in members:
                del self._replicas[name]
        for name in members:
            self._track(name, now_ms)

    def _track(self, name: str, now_ms: float) -> ReplicaHealth:
        record = self._replicas.get(name)
        if record is None:
            record = ReplicaHealth(name=name, entered_state_at_ms=now_ms)
            self._replicas[name] = record
        return record

    # -- inspection ----------------------------------------------------------
    def state(self, name: str) -> Optional[HealthState]:
        """The replica's state, or ``None`` if untracked."""
        record = self._replicas.get(name)
        return record.state if record is not None else None

    def record_for(self, name: str) -> ReplicaHealth:
        """The full bookkeeping record (KeyError if untracked)."""
        return self._replicas[name]

    def is_quarantined(self, name: str) -> bool:
        """Whether ``name`` must receive no client traffic right now."""
        record = self._replicas.get(name)
        return record is not None and record.state is HealthState.QUARANTINED

    def quarantined(self) -> List[str]:
        """All currently quarantined replicas (sorted)."""
        return sorted(
            name for name, r in self._replicas.items()
            if r.state is HealthState.QUARANTINED
        )

    def discount(self, name: str) -> float:
        """Trust multiplier applied to the replica's ``F_{R_i}(t)``.

        Untracked replicas get full trust — the health view must never
        veto a replica it has no evidence about.
        """
        record = self._replicas.get(name)
        if record is None:
            return 1.0
        if record.state is HealthState.SUSPECTED:
            return SUSPECTED_DISCOUNT
        if record.state is HealthState.PROBATION:
            return PROBATION_DISCOUNT
        if record.state is HealthState.QUARANTINED:
            return 0.0
        return 1.0

    # -- evidence: client requests ------------------------------------------
    def record_success(self, name: str, now_ms: float) -> None:
        """A timely reply from ``name`` (first or redundant)."""
        record = self._replicas.get(name)
        if record is None:
            return
        record.successes_total += 1
        record.consecutive_faults = 0
        record.consecutive_omissions = 0
        record.consecutive_successes += 1
        if (
            record.state is HealthState.SUSPECTED
            and record.consecutive_successes >= RECOVER_AFTER
        ):
            self._transition(record, HealthState.HEALTHY, now_ms, "success")
        elif (
            record.state is HealthState.PROBATION
            and record.consecutive_successes >= PROBATION_AFTER
        ):
            self._transition(record, HealthState.HEALTHY, now_ms, "success")
        elif record.state is HealthState.QUARANTINED:
            # A straggler reply from before quarantine proves liveness —
            # the same evidence a re-admission probe would bring.
            self._enter_probation(record, now_ms, "reply-while-quarantined")

    def record_fault(
        self, name: str, now_ms: float, kind: FaultKind = "timing"
    ) -> None:
        """A timing fault (late reply) or omission (no reply) from ``name``."""
        record = self._replicas.get(name)
        if record is None:
            return
        record.faults_total += 1
        record.consecutive_successes = 0
        record.consecutive_faults += 1
        record.last_fault_kind = kind
        if kind in ("omission", "probe-failure"):
            record.consecutive_omissions += 1
        else:
            # A late reply (or a crash declaration's synthetic fault) is
            # still *contact* — the replica is slow, not unreachable.
            record.consecutive_omissions = 0
        if (
            self.config.unreachable_after is not None
            and record.consecutive_omissions >= self.config.unreachable_after
            and record.state is not HealthState.QUARANTINED
        ):
            # Total silence: quarantine on reply-loss evidence alone,
            # without waiting out the SUSPECTED demotion ladder.
            self._quarantine(record, now_ms, "unreachable")
            return
        if (
            record.state is HealthState.HEALTHY
            and record.consecutive_faults >= SUSPECT_AFTER
        ):
            self._transition(record, HealthState.SUSPECTED, now_ms, kind)
        elif (
            record.state is HealthState.SUSPECTED
            and record.consecutive_faults >= SUSPECT_AFTER + QUARANTINE_AFTER
        ):
            self._quarantine(record, now_ms, kind)
        elif record.state is HealthState.PROBATION:
            self._quarantine(record, now_ms, kind)

    def record_clock_anomaly(self, name: str, now_ms: float) -> None:
        """An incoherent performance report from ``name``.

        The handler rejected a report whose timestamps are physically
        impossible against its own round-trip measurements (see
        ``HealthConfig.clock_anomaly_after``).  The report itself never
        enters the repository; this method only accumulates the evidence
        and quarantines the replica — reason ``"clock_fault"`` — once the
        streak crosses the threshold.  Re-admission rides the normal
        backoff-probe → PROBATION path: after the fault window resyncs,
        the replica's reports turn coherent again and it earns its way
        back in.
        """
        record = self._replicas.get(name)
        if record is None:
            return
        record.clock_anomalies += 1
        record.consecutive_clock_anomalies += 1
        record.faults_total += 1
        record.consecutive_successes = 0
        record.last_fault_kind = "clock"
        if (
            self.config.clock_anomaly_after is not None
            and record.consecutive_clock_anomalies
            >= self.config.clock_anomaly_after
            and record.state is not HealthState.QUARANTINED
        ):
            self._quarantine(record, now_ms, "clock_fault")

    def record_coherent_sample(self, name: str) -> None:
        """A performance report from ``name`` passed the coherence checks."""
        record = self._replicas.get(name)
        if record is not None:
            record.consecutive_clock_anomalies = 0

    def record_crash(self, name: str, now_ms: float) -> None:
        """The failure detector declared ``name`` crashed."""
        record = self._replicas.get(name)
        if record is None or record.state is HealthState.QUARANTINED:
            return
        record.faults_total += 1
        record.consecutive_successes = 0
        record.last_fault_kind = "crash"
        self._quarantine(record, now_ms, "crash")

    # -- evidence: probes ----------------------------------------------------
    def record_probe_success(self, name: str, now_ms: float) -> None:
        """A probe to ``name`` was answered (liveness, not timeliness)."""
        record = self._replicas.get(name)
        if record is None:
            return
        # Liveness contact in any state: a replica that answers probes is
        # grey (slow), not unreachable — the streak must not accumulate.
        record.consecutive_omissions = 0
        if record.state is HealthState.QUARANTINED:
            self._enter_probation(record, now_ms, "probe-success")
        elif record.state is HealthState.PROBATION:
            record.consecutive_successes += 1
            if record.consecutive_successes >= PROBATION_AFTER:
                self._transition(
                    record, HealthState.HEALTHY, now_ms, "probe-success"
                )
        # HEALTHY / SUSPECTED: a queue-bypassing probe success is no
        # evidence of timeliness; ignore it (see module docstring).

    def record_probe_failure(self, name: str, now_ms: float) -> None:
        """A probe to ``name`` expired unanswered."""
        record = self._replicas.get(name)
        if record is None:
            return
        if record.state is HealthState.QUARANTINED:
            record.backoff_ms = min(
                record.backoff_ms * BACKOFF_FACTOR, self.config.backoff_max_ms
            )
            record.next_probe_at_ms = now_ms + record.backoff_ms
        elif record.state is HealthState.SUSPECTED:
            # The verification probe a suspicion triggers: its failure is
            # the omission evidence that escalates to quarantine even
            # after selection stopped routing requests to the replica.
            self.record_fault(name, now_ms, kind="probe-failure")
        elif record.state is HealthState.PROBATION:
            self._quarantine(record, now_ms, "probe-failure")
        # HEALTHY: a lost staleness-probe on a lossy wire is not a fault.

    # -- probe scheduling ----------------------------------------------------
    def due_probes(self, now_ms: float) -> List[str]:
        """Replicas a health probe should be sent to right now (sorted).

        SUSPECTED and PROBATION replicas are probed every tick (cheap,
        out-of-band evidence so their streaks can resolve without client
        traffic); QUARANTINED replicas only when their backoff expired.
        """
        due = []
        for name, record in self._replicas.items():
            if record.state in (HealthState.SUSPECTED, HealthState.PROBATION):
                due.append(name)
            elif (
                record.state is HealthState.QUARANTINED
                and now_ms >= record.next_probe_at_ms
            ):
                due.append(name)
        return sorted(due)

    def note_probe_sent(self, name: str, now_ms: float) -> None:
        """A probe left for ``name``; pre-arm the next quarantine slot."""
        record = self._replicas.get(name)
        if record is not None and record.state is HealthState.QUARANTINED:
            record.next_probe_at_ms = now_ms + record.backoff_ms

    # -- transitions ---------------------------------------------------------
    def _quarantine(
        self, record: ReplicaHealth, now_ms: float, reason: str
    ) -> None:
        if record.state is HealthState.PROBATION:
            # A probation bounce escalates the previous backoff instead of
            # restarting it — the replica keeps proving itself unstable.
            record.backoff_ms = min(
                max(record.backoff_ms, self.config.backoff_initial_ms)
                * BACKOFF_FACTOR,
                self.config.backoff_max_ms,
            )
        else:
            record.backoff_ms = self.config.backoff_initial_ms
        record.quarantine_count += 1
        record.next_probe_at_ms = now_ms + record.backoff_ms
        self._transition(record, HealthState.QUARANTINED, now_ms, reason)

    def _enter_probation(
        self, record: ReplicaHealth, now_ms: float, reason: str
    ) -> None:
        record.consecutive_faults = 0
        # The admitting evidence counts as the first probation success
        # (PROBATION_AFTER > 1, so it never re-admits on its own).
        record.consecutive_successes = 1
        self._transition(record, HealthState.PROBATION, now_ms, reason)

    def _transition(
        self,
        record: ReplicaHealth,
        new_state: HealthState,
        now_ms: float,
        reason: str,
    ) -> None:
        if record.state is new_state:
            return
        event = HealthEvent(
            replica=record.name,
            old_state=record.state,
            new_state=new_state,
            at_ms=now_ms,
            reason=reason,
        )
        record.state = new_state
        record.entered_state_at_ms = now_ms
        if new_state is HealthState.HEALTHY:
            record.consecutive_faults = 0
            record.consecutive_successes = 0
        self.events.append(event)
        for listener in list(self._listeners):
            listener(event)

    def __repr__(self) -> str:
        by_state: Dict[str, int] = {}
        for record in self._replicas.values():
            by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
        return f"<HealthMonitor {by_state}>"
