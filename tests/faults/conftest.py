"""Mini AQuA stack wired through the fault-injection layer.

:class:`repro.workload.MiniStack` on the fault-injecting wire, so every
component sends through a :class:`FaultyTransport`; the stack owns a
:class:`LifecycleAuditor` watching every client, and its one fault plane
(``stack.faults``) applies whole schedules: ``stack.faults.apply(...)``
once the servers and clients exist.
"""

from __future__ import annotations

import pytest

from repro.core.selection import SelectionDecision
from repro.engine import RequestRecord
from repro.orb.object import MethodRequest
from repro.workload.ministack import METHOD, SERVICE, MiniStack

__all__ = ["METHOD", "SERVICE", "FaultStack", "stack", "stray_record"]


def stray_record(completed: bool = False) -> RequestRecord:
    """A request record no request owns — seeds a leak via ``book.open``."""
    return RequestRecord(
        MethodRequest(SERVICE, METHOD), "", 0.0, 0.0, None,
        SelectionDecision(selected=()), completed=completed,
    )


class FaultStack(MiniStack):
    """A deterministic deployment whose wire is always fault-injectable."""

    def __init__(self, seed: int = 0, fault_seed: int = 0):
        super().__init__(seed=seed, faulty_wire=True, wire_seed=fault_seed)


@pytest.fixture
def stack() -> FaultStack:
    return FaultStack()
