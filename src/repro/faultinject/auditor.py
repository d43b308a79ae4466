"""Drain-time lifecycle auditing for the request path.

The :class:`LifecycleAuditor` wraps every watched client handler's
``submit`` so each intercepted request is tracked from submission to its
outcome event, then — once the simulation has drained — checks the
invariants that must hold no matter what faults were injected:

1. **Exactly-once completion**: every submitted request's outcome event
   fired exactly once, with a reply XOR a timeout XOR a shed (never two
   of them, never none).
2. **No leaked bookkeeping**: each handler's ``lifecycle_leaks()`` is
   empty — no request record, no retransmitted copy, no probe survives
   the drain in the :class:`~repro.engine.RequestBook`.
3. **No resurrection**: no client repository holds a replica that is not
   in the handler's current membership view (a stale performance push
   must not bring an evicted replica back).
4. **Idle servers**: every non-crashed server has an empty queue and no
   request in service.
5. **No acks from the dark side** (partition-aware, needs
   :meth:`LifecycleAuditor.set_schedule`): a request whose entire
   lifetime fell inside a blackout cut separating its client from the
   replying replica cannot have received that reply — a reply anyway
   means partition enforcement leaked.

``audit()`` returns an :class:`AuditReport`; ``assert_clean()`` raises
:class:`LifecycleViolation` with the full report when anything leaked.
When a replay recipe has been attached via
:meth:`LifecycleAuditor.set_replay`, the report (and therefore the
violation message) carries the one-line command that reproduces the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._compat import assert_never
from ..gateway.handlers.timing_fault import OutcomeKind, ReplyOutcome
from ..orb.object import MethodRequest
from ..sim.events import Event
from .schedule import FaultSchedule

__all__ = [
    "SubmissionRecord",
    "AuditReport",
    "LifecycleViolation",
    "LifecycleAuditor",
]


class LifecycleViolation(AssertionError):
    """Raised by :meth:`LifecycleAuditor.assert_clean` on a dirty audit."""


@dataclass
class SubmissionRecord:
    """One intercepted request and everything its event delivered."""

    client: str
    method: str
    submitted_at_ms: float
    event: Event
    outcomes: List[ReplyOutcome] = field(default_factory=list)


@dataclass
class AuditReport:
    """Result of one drain-time audit."""

    submitted: int
    replies: int
    timeouts: int
    violations: List[str]
    sheds: int = 0
    replay: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Whether every invariant held."""
        return not self.violations

    @property
    def completed(self) -> int:
        """Requests that delivered exactly one outcome."""
        return self.replies + self.timeouts + self.sheds

    def __str__(self) -> str:
        head = (
            f"lifecycle audit: {self.submitted} submitted, "
            f"{self.replies} replies, {self.timeouts} timeouts, "
            f"{self.sheds} sheds"
        )
        if self.clean:
            return head + ", clean"
        lines = [head + f", {len(self.violations)} violation(s):"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        if self.replay is not None:
            lines.append(f"  replay: {self.replay}")
        return "\n".join(lines)


class LifecycleAuditor:
    """Tracks submissions and audits handler state at drain time."""

    def __init__(self) -> None:
        self._clients: List[Any] = []
        self._servers: List[Any] = []
        self.records: List[SubmissionRecord] = []
        self._schedule: Optional[FaultSchedule] = None
        self._replay: Optional[str] = None

    # -- wiring --------------------------------------------------------------
    def set_schedule(self, schedule: FaultSchedule) -> None:
        """Attach the injected fault schedule, enabling the
        partition-aware invariants (no acks from the dark side)."""
        self._schedule = schedule

    def set_replay(self, replay: str) -> None:
        """Attach a one-line replay recipe embedded in dirty reports."""
        self._replay = replay

    def watch_client(self, handler: Any) -> None:
        """Track every request submitted through ``handler``.

        The handler's ``submit`` is wrapped in place, so the auditor must
        be attached before traffic starts.
        """
        if any(existing is handler for existing in self._clients):
            return
        self._clients.append(handler)
        original = handler.submit
        records = self.records

        def audited_submit(request: MethodRequest) -> Event:
            event = original(request)
            record = SubmissionRecord(
                client=handler.host,
                method=request.method,
                submitted_at_ms=handler.sim.now,
                event=event,
            )
            event.add_callback(lambda e: record.outcomes.append(e.value))
            records.append(record)
            return event

        handler.submit = audited_submit

    def watch_server(self, handler: Any) -> None:
        """Register a server handler for drain-time state checks."""
        if any(existing is handler for existing in self._servers):
            return
        self._servers.append(handler)

    # -- auditing --------------------------------------------------------------
    def audit(self) -> AuditReport:
        """Check every invariant; call only once the simulation drained."""
        violations: List[str] = []
        replies = 0
        timeouts = 0
        sheds = 0
        for index, record in enumerate(self.records):
            label = (
                f"request #{index} ({record.client}.{record.method} "
                f"@{record.submitted_at_ms:.1f}ms)"
            )
            if not record.event.processed:
                violations.append(f"{label}: never completed (leaked request)")
                continue
            if len(record.outcomes) != 1:
                violations.append(
                    f"{label}: completed {len(record.outcomes)} times, "
                    "expected exactly once"
                )
                continue
            outcome = record.outcomes[0]
            if outcome.response_time_ms < 0.0:
                # Response times are measured on the gateway's own clock;
                # even a faulted clock must never yield a negative span
                # (the handler clamps).  A negative here means a raw
                # cross-clock subtraction leaked into the measurement.
                violations.append(
                    f"{label}: negative response time "
                    f"{outcome.response_time_ms:.3f}ms (cross-clock "
                    "measurement leaked)"
                )
            # Branch on the closed OutcomeKind enum; the assert_never arm
            # makes the checker prove a new outcome kind cannot slip past
            # the audit unhandled.  The cross-flag checks below still read
            # the raw booleans: `kind` prioritizes SHED, so a corrupt
            # shed-AND-timeout outcome only shows up there.
            kind = outcome.kind
            if kind is OutcomeKind.SHED:
                sheds += 1
                if outcome.timed_out:
                    violations.append(
                        f"{label}: shed yet marked timed out (shed AND timeout)"
                    )
                if outcome.replica is not None:
                    violations.append(
                        f"{label}: shed yet names replica "
                        f"{outcome.replica!r} (shed AND reply)"
                    )
            elif kind is OutcomeKind.TIMEOUT:
                timeouts += 1
                if outcome.replica is not None:
                    violations.append(
                        f"{label}: timed out yet names replica "
                        f"{outcome.replica!r} (reply AND timeout)"
                    )
            elif kind is OutcomeKind.REPLY:
                replies += 1
                if outcome.replica is None:
                    violations.append(
                        f"{label}: replied without a replica "
                        "(neither reply nor timeout)"
                    )
                else:
                    violations.extend(
                        self._dark_side_violations(label, record, outcome)
                    )
            else:
                assert_never(kind)
        for handler in self._clients:
            violations.extend(self._handler_leaks("client", handler))
        for handler in self._servers:
            violations.extend(self._handler_leaks("server", handler))
        return AuditReport(
            submitted=len(self.records),
            replies=replies,
            timeouts=timeouts,
            violations=violations,
            sheds=sheds,
            replay=self._replay,
        )

    def _dark_side_violations(
        self, label: str, record: SubmissionRecord, outcome: ReplyOutcome
    ) -> List[str]:
        """Invariant 5: a reply across a total steady cut is impossible.

        Only *blackout* cuts (total, exemption-free, non-flapping) are
        checked — lossy, flapping or probe-exempt partitions legitimately
        let the odd message through, so convicting on them would be a
        false positive.
        """
        if self._schedule is None:
            return []
        assert outcome.replica is not None
        submitted = record.submitted_at_ms
        completed = submitted + outcome.response_time_ms
        violations: List[str] = []
        for fault in self._schedule.partitions:
            if not fault.blackout:
                continue
            if not fault.separates(record.client, outcome.replica):
                continue
            if fault.start_ms <= submitted and completed <= fault.end_ms:
                violations.append(
                    f"{label}: acknowledged by {outcome.replica!r} from the "
                    f"dark side of a blackout cut "
                    f"[{fault.start_ms:.1f}, {fault.end_ms:.1f}]ms "
                    "(partition enforcement leaked)"
                )
        return violations

    @staticmethod
    def _handler_leaks(role: str, handler: Any) -> List[str]:
        leaks: Dict[str, List[Any]] = handler.lifecycle_leaks()
        return [
            f"{role} {handler.host!r}: leaked {name} = {entries}"
            for name, entries in sorted(leaks.items())
        ]

    def assert_clean(self) -> AuditReport:
        """Audit and raise :class:`LifecycleViolation` on any violation."""
        report = self.audit()
        if not report.clean:
            raise LifecycleViolation(str(report))
        return report

    def __repr__(self) -> str:
        return (
            f"<LifecycleAuditor clients={len(self._clients)} "
            f"servers={len(self._servers)} records={len(self.records)}>"
        )
