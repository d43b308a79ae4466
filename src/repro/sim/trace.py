"""Structured event tracing for the message plane.

The transport emits :class:`TraceRecord` entries (``net.sent`` /
``net.delivered`` / ``net.dropped``) into a :class:`Tracer` handed to it;
records are cheap frozen dataclasses and filtering is done after the run.
Per-request stamps (the paper's t0..t4) are not traced: they travel on
the request's :class:`~repro.engine.ReplyOutcome`.
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

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records with exactly this ``kind``."""
        return [r for r in self.records if r.kind == kind]

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
