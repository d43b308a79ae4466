"""Structured event tracing: a record list nothing in ``repro`` writes.

No layer of the simulator traces: a request's stamps (the paper's
t0..t4) travel on its :class:`~repro.engine.ReplyOutcome`, and the
transport keeps counters.  The module stays because the end-to-end
benchmark wraps :meth:`Tracer.emit` and :meth:`NullTracer.emit` by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["TraceRecord", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time in milliseconds.
    source:
        Name of the emitting component, e.g. ``"transport"``.
    kind:
        Machine-readable record type, e.g. ``"net.sent"``.
    data:
        Free-form payload describing the occurrence.
    """

    time: float
    source: str
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceRecord` entries."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []

    def emit(self, time: float, source: str, kind: str, **data: Any) -> None:
        """Record one occurrence (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        self.records.append(
            TraceRecord(time=time, source=source, kind=kind, data=data)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<Tracer records={len(self.records)} enabled={self.enabled}>"


class NullTracer(Tracer):
    """A tracer that records nothing; use when traces are not needed."""

    def __init__(self) -> None:
        super().__init__(enabled=False)

    def emit(self, time: float, source: str, kind: str, **data: Any) -> None:
        return
