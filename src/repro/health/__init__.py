"""Replica health subsystem: suspicion, quarantine, and re-admission.

A per-replica state machine (HEALTHY → SUSPECTED → QUARANTINED →
PROBATION) driven by the timing-fault evidence the gateway handlers
already collect, with exponential-backoff re-admission probes.  The
selection layer consumes the resulting health view to exclude
quarantined replicas and discount suspected ones; every transition is
kept as a :class:`HealthEvent` in ``HealthMonitor.events``.

See docs/ARCHITECTURE.md §5 for the full design.
"""

from .monitor import HealthMonitor, ReplicaHealth
from .state import FaultKind, HealthConfig, HealthEvent, HealthState

__all__ = [
    "FaultKind",
    "HealthConfig",
    "HealthEvent",
    "HealthMonitor",
    "HealthState",
    "ReplicaHealth",
]
