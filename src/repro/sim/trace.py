"""Structured event tracing for simulations.

Components emit :class:`TraceRecord` entries into a shared
:class:`Tracer`.  Records are cheap named tuples; filtering/aggregation is
done after the run.  The experiment harness uses traces to extract per-stage
latencies (the paper's t0..t4 timestamps), selection decisions and failure
events without the components needing to know about any experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Tracer", "NullTracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes
    ----------
    time:
        Simulated time in milliseconds.
    source:
        Name of the emitting component, e.g. ``"client-1.handler"``.
    kind:
        Machine-readable record type, e.g. ``"request.sent"``.
    data:
        Free-form payload describing the occurrence.
    """

    time: float
    source: str
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceRecord` entries and offers simple queries."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def emit(self, time: float, source: str, kind: str, **data: Any) -> None:
        """Record one occurrence (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        record = TraceRecord(time=time, source=source, kind=kind, data=data)
        self.records.append(record)
        for listener in self._listeners:
            listener(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` synchronously for every future record."""
        self._listeners.append(listener)

    # -- queries ----------------------------------------------------------
    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records with exactly this ``kind``."""
        return [r for r in self.records if r.kind == kind]

    def select(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[TraceRecord]:
        """Lazily filter records by kind/source/time window."""
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if source is not None and record.source != source:
                continue
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            yield record

    def clear(self) -> None:
        """Drop all collected records (listeners stay subscribed)."""
        self.records.clear()

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
