"""The request book: every lifecycle record of the client, one writer.

Three books live here and nowhere else — open requests, retransmitted
copies in flight (``copy id → original, sent_at``) and probes in flight.
The :class:`~repro.faultinject.auditor.LifecycleAuditor` proves
exactly-once completion by auditing them, so every mutation is a method
of :class:`RequestBook` (repro-lint RL004 forbids writers elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..core.selection import SelectionDecision
from ..orb.object import MethodRequest

__all__ = ["RequestBook", "RequestRecord"]


@dataclass
class RequestRecord:
    """Client-side bookkeeping for one outstanding request.

    ``expected`` holds the replicas a reply may still arrive from (the
    replicas actually addressed, including later retransmission targets);
    ``replied`` the replicas heard from so far.  Once a completed request
    has heard from every expected replica, no redundant reply can arrive
    any more and the record is dropped without waiting for the response
    timeout — the bound that keeps the book sized by in-flight work.
    ``faulted`` holds the replicas already charged an omission fault for
    this request: a retry timeout and the final response timeout must not
    both bill the same silence.  ``token`` is the caller's opaque
    completion handle.
    """

    request: MethodRequest
    class_key: str
    t0: float
    t1: float
    token: Any
    decision: SelectionDecision
    completed: bool = False
    expected: Set[str] = field(default_factory=set)
    replied: Set[str] = field(default_factory=set)
    faulted: Set[str] = field(default_factory=set)


class RequestBook:
    """Open requests, their retransmitted copies, and probes in flight."""

    def __init__(self) -> None:
        """Start with empty books."""
        self._requests: Dict[int, RequestRecord] = {}
        # msg_id of a retransmitted copy -> (original msg_id, copy sent at).
        self._copy_of: Dict[int, Tuple[int, float]] = {}
        # probe msg_id -> (send time, target replica)
        self._probes: Dict[int, Tuple[float, str]] = {}

    # -- read-only views -------------------------------------------------------
    @property
    def pending(self) -> Mapping[int, RequestRecord]:
        """Open request records by ``msg_id`` (read-only)."""
        return MappingProxyType(self._requests)

    @property
    def probes(self) -> Mapping[int, Tuple[float, str]]:
        """Probes in flight: ``msg_id → (sent_at, replica)`` (read-only)."""
        return MappingProxyType(self._probes)

    def awaiting_replies(self) -> int:
        """Request copies addressed but not yet replied to (load input)."""
        return sum(len(r.expected - r.replied) for r in self._requests.values())

    # -- requests --------------------------------------------------------------
    def open(self, msg_id: int, record: RequestRecord) -> None:
        """Register a transmitted request under its ``msg_id``."""
        self._requests[msg_id] = record

    def add_copy(
        self, copy_id: int, msg_id: int, target: str, sent_at: float
    ) -> None:
        """A copy of open request ``msg_id`` went to ``target`` at ``sent_at``.

        The target may now reply too: the record stays until it has been
        heard from (or the response timeout fires).
        """
        self._copy_of[copy_id] = (msg_id, sent_at)
        self._requests[msg_id].expected.add(target)

    def resolve(
        self, correlation_id: int
    ) -> Tuple[int, Optional[RequestRecord], float]:
        """Map a reply's correlation id to ``(request id, record, t1)``.

        A copy's reply resolves to its original request *with the copy's
        own transmission time* — the gateway delay of such a reply is
        measured from when the copy left, not the original.  The copy
        entry is consumed: each copy is answered at most once.
        """
        copy = self._copy_of.pop(correlation_id, None)
        if copy is not None:
            return copy[0], self._requests.get(copy[0]), copy[1]
        record = self._requests.get(correlation_id)
        return correlation_id, record, record.t1 if record is not None else 0.0

    def heard(self, record: RequestRecord, replica: str) -> None:
        """``replica`` answered ``record`` (first, redundant or late)."""
        record.replied.add(replica)

    def claim(self, record: RequestRecord) -> bool:
        """Exactly-once completion: true for the one caller that may deliver."""
        if record.completed:
            return False
        record.completed = True
        return True

    def bill_silent(self, record: RequestRecord) -> List[str]:
        """Replicas addressed, never heard from, and not yet billed (sorted).

        They are marked billed, so each silence is charged once.
        """
        silent = sorted(record.expected - record.replied - record.faulted)
        record.faulted.update(silent)
        return silent

    def settle(self, msg_id: int) -> None:
        """Drop a completed record once every expected reply has arrived.

        Redundant replies from the remaining expected replicas are still
        mined for performance data, so the record stays until they have
        all been heard from (or the response timeout gives up on them).
        """
        record = self._requests.get(msg_id)
        if (
            record is not None
            and record.completed
            and record.expected <= record.replied
        ):
            self.forget(msg_id)

    def forget(self, msg_id: int) -> Optional[RequestRecord]:
        """Remove a request record and the copies still in flight for it.

        Copies whose replies never arrive (crashed replica, lost message)
        would otherwise leak their entries forever.
        """
        record = self._requests.pop(msg_id, None)
        if record is not None and self._copy_of:
            for copy_id in [
                c for c, (original, _at) in self._copy_of.items()
                if original == msg_id
            ]:
                del self._copy_of[copy_id]
        return record

    # -- probes ----------------------------------------------------------------
    def open_probe(self, msg_id: int, replica: str, sent_at: float) -> None:
        """A probe to ``replica`` left at ``sent_at``."""
        self._probes[msg_id] = (sent_at, replica)

    def close_probe(self, msg_id: int) -> Optional[Tuple[float, str]]:
        """Retire a probe (answered or given up on); ``None`` if unknown."""
        return self._probes.pop(msg_id, None)

    def probed(self) -> Set[str]:
        """Replicas with a probe currently in flight."""
        return {replica for _sent, replica in self._probes.values()}

    # -- lifecycle invariants --------------------------------------------------
    def leaks(self) -> Dict[str, List[int]]:
        """Entries that must be gone once the system has fully drained."""
        books = (
            ("pending", self._requests),
            ("copies_in_flight", self._copy_of),
            ("probes_in_flight", self._probes),
        )
        return {name: sorted(book) for name, book in books if book}
