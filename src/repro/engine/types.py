"""Vocabulary of the timing-fault engine: evidence in, outcomes out, one port.

The engine consumes :class:`PerformanceUpdate` evidence and produces
:class:`ReplyOutcome` completions; everything it asks of the outside
world goes through :class:`EnginePort`.  Nothing here (or anywhere under
``repro.engine``) schedules, sends or reads kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, NamedTuple, Optional, Protocol, Sequence, Tuple

from ..core.selection import SelectionMeta
from ..orb.object import MethodRequest

__all__ = [
    "DEFAULT_CLASS",
    "EnginePort",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
    "RequestClassifier",
    "method_classifier",
]

#: Class key used when no classifier is configured (the paper's base
#: design: one model per service).
DEFAULT_CLASS = ""

# A classifier maps a request to the performance class whose history
# should model it.
RequestClassifier = Callable[[MethodRequest], str]


def method_classifier(request: MethodRequest) -> str:
    """Classify by method name — the paper's multi-interface extension."""
    return request.method


class PerformanceUpdate(NamedTuple):
    """The measurements a replica publishes after servicing a request.

    ``request`` identifies what was serviced so that classifying clients
    can file the measurement under the right performance class.

    ``enqueued_at_ms`` and ``sent_at_ms`` are *absolute readings of the
    replica's own clock* (``t2`` and the reply-send instant).  The
    skew-tolerant client ignores them — absolute remote timestamps are
    not comparable with its own clock — but a naive implementation can
    be built on them, which is exactly what experiment A18 measures.
    """

    replica: str
    service: str
    service_time_ms: float  # ts
    queue_delay_ms: float  # tq
    queue_length: int
    request: Optional[MethodRequest] = None
    enqueued_at_ms: float = 0.0  # t2 on the replica's clock
    sent_at_ms: float = 0.0  # reply-send instant on the replica's clock


class OutcomeKind(Enum):
    """The three mutually exclusive completion outcomes of a request.

    Every request ends exactly one way — a reply XOR a timeout XOR a
    shed (the exactly-once invariant the
    :class:`~repro.faultinject.auditor.LifecycleAuditor` audits).
    Consumers should branch on :attr:`ReplyOutcome.kind` and close the
    chain with ``assert_never`` so the type checker proves every outcome
    — in particular ``SHED`` — is handled.
    """

    REPLY = "reply"
    TIMEOUT = "timeout"
    SHED = "shed"


@dataclass(frozen=True)
class ReplyOutcome:
    """What the client's invocation event fires with: the request's record.

    The paper's stamps (§1, Fig. 2), all read on the gateway's host clock
    except those the winning reply carries: ``t0_ms`` (interception),
    ``t1_ms`` (send of the copy whose reply won — the original send for a
    timeout, ``None`` for a shed), ``t4_ms`` (completion: reply arrival,
    expiry or shed) and ``perf``, the winning reply's
    :class:`PerformanceUpdate` (``t2 = enqueued_at_ms``, ``tq``, ``ts``,
    ``sent_at_ms`` on the replica's clock; ``None`` unless a reply won).

    ``timed_out`` marks requests for which no reply arrived before the
    engine's response timeout (e.g. every selected replica crashed);
    these count as timing failures.  ``shed`` marks requests the
    admission controller fail-fast rejected before any copy hit the
    wire — the third, mutually exclusive completion outcome (reply XOR
    timeout XOR shed); sheds are *not* timing failures and stay out of
    :class:`~repro.core.qos.TimingFailureStats`.  :attr:`kind` folds the
    two flags into the closed :class:`OutcomeKind` enum; new code should
    branch on it exhaustively rather than on the booleans.
    """

    value: Any
    response_time_ms: float
    timely: bool
    timed_out: bool
    replica: Optional[str]
    redundancy: int
    request_id: int
    t0_ms: float
    t1_ms: Optional[float]
    t4_ms: float
    perf: Optional[PerformanceUpdate]
    decision_meta: SelectionMeta = field(
        default_factory=lambda: SelectionMeta()
    )
    shed: bool = False

    @property
    def kind(self) -> OutcomeKind:
        """The completion outcome as a checker-enforceable enum."""
        if self.shed:
            return OutcomeKind.SHED
        if self.timed_out:
            return OutcomeKind.TIMEOUT
        return OutcomeKind.REPLY


class EnginePort(Protocol):
    """Everything the engine asks of the outside world.

    The simulator adapter implements it on ``sim``/``transport``/
    ``group_comm``/``HostClock``; tests implement it with a manual clock
    and lists.  Marshalled calls, reply payloads and completion tokens
    are opaque to the engine.
    """

    @property
    def now(self) -> float:
        """This gateway's host clock, in (local) milliseconds."""

    def send_request(
        self, call: Any, targets: Sequence[str]
    ) -> Tuple[int, Tuple[str, ...]]:
        """Multicast ``call``; returns its ``msg_id`` and who was addressed."""

    def send_copy(self, call: Any, target: str) -> int:
        """Retransmit ``call`` to one replica; returns the copy's ``msg_id``."""

    def send_probe(self, replica: str) -> int:
        """Ping ``replica``'s gateway out of band; returns the ``msg_id``."""

    def decode(self, reply: Any) -> Tuple[Any, float]:
        """Demarshal a reply payload into ``(value, cpu_cost_ms)``."""

    def arm(
        self,
        delay_ms: float,
        callback: Callable[..., None],
        *args: Any,
        daemon: bool = False,
    ) -> None:
        """Call ``callback(*args)`` after ``delay_ms`` (daemon: keeps nothing alive)."""

    def complete(self, token: Any, outcome: ReplyOutcome, after_ms: float = 0.0) -> None:
        """Fire ``token`` with ``outcome`` ``after_ms`` (the upcall cost) from now."""
