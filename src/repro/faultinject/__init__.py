"""Fault injection and lifecycle auditing for the request path.

Four composable layers:

* :mod:`~repro.faultinject.schedule` (with
  :mod:`~repro.faultinject.partition` and :mod:`~repro.faultinject.clock`)
  — declarative fault schedules (drops, delay spikes, duplicated/late
  replies, crash+restart, view churn, persistent degradation, overload
  surges, network partitions, clock faults) plus a randomized-schedule
  generator;
* :mod:`~repro.faultinject.plane` — the deployment's one
  :class:`FaultPlane`, whose ``apply(schedule)`` injects all nine
  families (the message-level ones through
  :mod:`~repro.faultinject.transport`'s :class:`FaultyTransport`);
* :mod:`~repro.faultinject.auditor` — the drain-time
  :class:`LifecycleAuditor` asserting the request-lifecycle invariants
  (exactly-once completion, no leaked bookkeeping, no resurrected
  replicas, idle servers, no acks from the dark side of a cut);
* :mod:`~repro.faultinject.campaign` — the randomized chaos-campaign
  engine: composed schedules fanned over the parallel sweep runner,
  audited per scenario, with a delta-debugging shrinker that minimizes
  failing schedules to a replayable reproducer.

See docs/ARCHITECTURE.md ("Fault injection and lifecycle invariants").
"""

from .auditor import (
    AuditReport,
    LifecycleAuditor,
    LifecycleViolation,
    SubmissionRecord,
)
from .campaign import (
    CampaignConfig,
    CampaignResult,
    ScheduleOutcome,
    flatten_schedule,
    rebuild_schedule,
    run_campaign,
    run_scenario,
    shrink_schedule,
)
from .clock import CLOCK_FAULT_KINDS, ClockFault
from .partition import PROBE_EXEMPT_KINDS, PartitionFault
from .plane import FaultPlane
from .schedule import (
    ChurnFault,
    CrashRestartFault,
    DegradationFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultSchedule,
    OverloadFault,
    random_fault_schedule,
)
from .transport import FaultyTransport

__all__ = [
    "AuditReport",
    "CLOCK_FAULT_KINDS",
    "CampaignConfig",
    "CampaignResult",
    "ChurnFault",
    "ClockFault",
    "CrashRestartFault",
    "DegradationFault",
    "DelayRule",
    "DropRule",
    "DuplicateRule",
    "FaultPlane",
    "FaultSchedule",
    "FaultyTransport",
    "LifecycleAuditor",
    "LifecycleViolation",
    "OverloadFault",
    "PROBE_EXEMPT_KINDS",
    "PartitionFault",
    "ScheduleOutcome",
    "SubmissionRecord",
    "flatten_schedule",
    "random_fault_schedule",
    "rebuild_schedule",
    "run_campaign",
    "run_scenario",
    "shrink_schedule",
]
