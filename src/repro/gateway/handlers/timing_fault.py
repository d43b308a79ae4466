"""The timing fault handler (paper §5.4) — client and server sides.

Client side (:class:`TimingFaultClientHandler`): intercepts a request at
``t0``, runs the selection policy, multicasts the request to the selected
replicas at ``t1``, delivers the *first* reply to the client, mines every
reply (including redundant ones) for performance data, detects timing
failures (``tr = t4 − t0 > t``), and notifies the client via a callback
when the observed timely frequency drops below the QoS minimum.  All of
that behaviour lives in :mod:`repro.engine`; the handler is its simulator
adapter (messages, marshalling, timers, the host clock).

Server side (:class:`TimingFaultServerHandler`): enqueues requests at
``t2``, dequeues at ``t3`` (FIFO), services them (``ts``), replies with the
performance data ``(ts, tq = t3 − t2, queue length)`` embedded, and pushes
the same data to all subscribed clients on every processed request.

All interval end-points are measured on a single simulated host, so no
clock synchronization is assumed — exactly as in the paper.

The paper's §8 extensions (request classification, active probing,
gateway-delay windows) are fields of the client's
:class:`~repro.engine.EngineConfig`, all off by default.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from ...core.qos import QoSSpec
from ...engine import (
    DEFAULT_CLASS,
    EngineConfig,
    EvidenceAdmission,
    OutcomeKind,
    PerformanceUpdate,
    ReplyOutcome,
    RequestBook,
    RequestClassifier,
    RequestRecord,
    TimingFaultEngine,
    method_classifier,
)
from ...group.ensemble import GroupCommunication, GroupView, MembershipError
from ...metrics.collector import MetricsCollector
from ...net.message import Message
from ...net.transport import TransportAPI
from ...orb.iiop import MarshalledCall, MarshalledReply, MarshallingModel
from ...orb.object import MethodRequest, ServiceInterface
from ...orb.orb import RequestInterceptor
from ...replica.server import ReplicaApplication
from ...rng import seeded_generator
from ...sim.events import Event
from ...sim.hostclock import HostClock
from ...sim.kernel import Simulator
from ..gateway import ProtocolHandler

# The engine defines the evidence/outcome vocabulary (it produces them);
# it is re-exported here beside the wire kinds it travels under.
__all__ = [
    "MSG_REQUEST",
    "MSG_REPLY",
    "MSG_PERF",
    "MSG_SUBSCRIBE",
    "MSG_PROBE",
    "MSG_PROBE_REPLY",
    "DEFAULT_CLASS",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
    "RequestClassifier",
    "method_classifier",
    "TimingFaultServerHandler",
    "TimingFaultClientHandler",
]

MSG_REQUEST = "tf-request"
MSG_REPLY = "tf-reply"
MSG_PERF = "tf-perf"
MSG_SUBSCRIBE = "tf-subscribe"
MSG_PROBE = "tf-probe"
MSG_PROBE_REPLY = "tf-probe-reply"


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


class TimingFaultServerHandler(ProtocolHandler):
    """Server-gateway half of the timing fault handler.

    Owns the replica's FIFO request queue and the stage timestamps
    ``t2``/``t3``/``ts`` (paper §5.4.1).  Probes (the §8 extension) are
    answered directly by the gateway, without entering the FIFO queue —
    they measure the network and read the queue depth, not the servant.
    """

    message_kinds = (MSG_REQUEST, MSG_SUBSCRIBE, MSG_PROBE)

    def __init__(
        self,
        sim: Simulator,
        app: ReplicaApplication,
        transport: TransportAPI,
        marshalling: Optional[MarshallingModel] = None,
        clock: Optional[HostClock] = None,
    ) -> None:
        self.sim = sim
        self.clock = clock if clock is not None else HostClock(sim, host=app.host)
        self.app = app
        self.transport = transport
        self.marshalling = marshalling or MarshallingModel()
        self.service = app.service
        self.host = app.host
        self._queue: Deque[Tuple[Message, float]] = deque()
        # Insertion-ordered (a dict used as a set): pushes go out in
        # subscription-arrival order, never in str-hash order.
        self._subscribers: Dict[str, None] = {}
        # A copy is dequeued and not yet replied to (counts in the queue).
        self._busy = False
        # The service chain is live: a wake-up or a copy's step is on the
        # kernel heap.  A request arriving meanwhile only joins the queue.
        self._running = False
        # Between the servant's begin_service and end_service.
        self._in_service = False
        # Bumped by every crash: a step of an earlier incarnation that is
        # still on the kernel heap sees another number and does nothing.
        self._incarnation = 0
        #: Kernel time spent serving copies (demarshal, service, marshal).
        self.busy_ms = 0.0
        self.crashed = False
        self.probes_answered = 0
        self.replies = 0

    # -- inspection ------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Outstanding requests: waiting plus the one in service."""
        return len(self._queue) + (1 if self._busy else 0)

    # -- message handling --------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if self.crashed:
            return
        if message.kind == MSG_SUBSCRIBE:
            self._subscribers[message.payload["client"]] = None
            return
        if message.kind == MSG_PROBE:
            self._answer_probe(message)
            return
        # MSG_REQUEST: record the enqueue time t2 and, when the server is
        # idle, wake it at this instant, behind what is already due now.
        t2 = self.clock.now
        self._queue.append((message, t2))
        if not self._running:
            self._running = True
            incarnation = self._incarnation

            def wake() -> None:
                if incarnation == self._incarnation:
                    self._serve_head()

            self.sim.call_in(0.0, wake)

    def _answer_probe(self, message: Message) -> None:
        """Reply to a gateway-level probe, bypassing the FIFO queue."""
        self.probes_answered += 1
        payload = {"service": self.service, "replica": self.host,
                   "queue_length": self.queue_length}
        self.transport.send(
            Message(self.host, message.sender, MSG_PROBE_REPLY, payload, 64,
                    correlation_id=message.msg_id)
        )

    # -- the FIFO service chain --------------------------------------------------
    def _serve_head(self) -> None:
        """Dequeue the head copy at ``t3`` and serve it as a chain of steps.

        Demarshal, service and marshal each take kernel time: each ends in
        a ``call_in`` step, and the last one replies and starts the next
        queued copy at the same instant.  Every step checks that its
        incarnation is still the live one first: a crash leaves the
        pending step on the heap, where it fires and does nothing.
        """
        message, t2 = self._queue.popleft()
        self._busy = True
        began = self.clock.kernel_now
        t3 = self.clock.now
        request, demarshal_cost = self.marshalling.demarshal_request(
            message.payload["call"]
        )
        incarnation = self._incarnation
        duration: float
        service_started: float
        service_time: float
        reply: MarshalledReply

        def demarshalled() -> None:
            nonlocal service_started, duration
            if incarnation != self._incarnation:
                return
            # The load profile is a physical process: it follows the
            # kernel clock, not this host's (possibly faulty) view of it.
            duration = self.app.service_duration(
                request.method, self.clock.kernel_now
            )
            service_started = self.clock.now
            self.app.begin_service()
            self._in_service = True
            self.sim.call_in(duration, serviced)

        def serviced() -> None:
            nonlocal service_time, reply
            if incarnation != self._incarnation:
                return
            self._in_service = False
            value = self.app.execute(request)
            self.app.end_service()
            # ts (Stage 4 only), *measured on this host's clock*: exact
            # on a healthy clock, corrupted by drift/step/freeze faults.
            service_time = self.clock.elapsed_since(service_started, duration)
            signature = self.app.servant.interface.method(request.method)
            reply, marshal_cost = self.marshalling.marshal_reply(value, signature)
            self.sim.call_in(marshal_cost, marshalled)

        def marshalled() -> None:
            if incarnation != self._incarnation:
                return
            self._busy = False
            self.busy_ms += self.clock.kernel_now - began
            self._send_reply(message, request, reply, service_time, t3 - t2, t2)
            if self._queue:
                self._serve_head()
            else:
                self._running = False

        self.sim.call_in(demarshal_cost, demarshalled)

    def _send_reply(
        self,
        request_msg: Message,
        request: MethodRequest,
        reply: MarshalledReply,
        service_time: float,
        queue_delay: float,
        enqueued_at: float,
    ) -> None:
        perf = PerformanceUpdate(
            self.host, self.service, service_time_ms=service_time,
            queue_delay_ms=queue_delay, queue_length=self.queue_length,
            request=request, enqueued_at_ms=enqueued_at, sent_at_ms=self.clock.now,
        )
        payload = {"service": self.service, "reply": reply, "perf": perf,
                   "replica": self.host}
        self.transport.send(
            Message(self.host, request_msg.sender, MSG_REPLY, payload,
                    reply.size_bytes, correlation_id=request_msg.msg_id)
        )
        self.replies += 1
        # Push the fresh performance data to every subscriber except the
        # requester (whose copy rides inside the reply itself).  One
        # payload for the whole fan-out: receivers only read it.
        push = {"service": self.service, "replica": self.host, "perf": perf}
        send, host, requester = self.transport.send, self.host, request_msg.sender
        for subscriber in self._subscribers:
            if subscriber != requester:
                send(Message(host, subscriber, MSG_PERF, push, 96))

    # -- fault lifecycle ---------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop queued work and end this incarnation's chain."""
        if self.crashed:
            return
        self.crashed = True
        self._queue.clear()
        self._busy = False
        self._running = False
        self._incarnation += 1
        if self._in_service:  # the copy is cut off: the servant stops now
            self._in_service = False
            self.app.end_service()

    def restart(self) -> None:
        """Come back after a crash with an empty queue (new incarnation)."""
        self.crashed = False

    # -- lifecycle invariants ------------------------------------------------
    def lifecycle_leaks(self) -> Dict[str, List[Any]]:
        """Server state that must be empty/idle once traffic has drained."""
        leaks: Dict[str, List[Any]] = {}
        if self.crashed:
            return leaks  # a crashed incarnation holds no live obligations
        if self._queue:
            leaks["queued_requests"] = [m.msg_id for m, _t2 in self._queue]
        if self._busy:
            leaks["busy"] = [self.host]
        return leaks

    def __repr__(self) -> str:
        return (
            f"<TimingFaultServerHandler {self.host!r} queue={self.queue_length} "
            f"crashed={self.crashed}>"
        )


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------


def _engine_view(name: str) -> property:
    """Read-only handler attribute that reads through to the engine's."""
    return property(
        lambda self: getattr(self.engine, name), doc=f"The engine's ``{name}``."
    )


class TimingFaultClientHandler(ProtocolHandler, RequestInterceptor):
    """Client-gateway half of the timing fault handler (paper §5.4).

    The simulator adapter of :class:`repro.engine.TimingFaultEngine`: it
    unpacks messages, marshals and demarshals, and implements the
    engine's port (``now``, ``send_*``, ``decode``, ``arm``, ``complete``)
    on the simulation substrate.  Variants substitute one of the engine's
    owners through a class attribute — ``book_cls``, ``evidence_cls`` —
    never a method of this class.

    Parameters
    ----------
    sim, host, transport, group_comm:
        Simulation substrate and this client's host.
    interface:
        Interface of the replicated service (for marshalling sizes).
    qos:
        The client's QoS specification.
    config:
        Every behaviour option (:class:`~repro.engine.EngineConfig`, the
        option reference); one config per client.
    marshalling:
        The :class:`~repro.orb.iiop.MarshallingModel` pricing request and
        reply (de)marshalling; defaults to the stock model.
    rng:
        Random generator handed to stochastic policies.
    clock:
        The :class:`~repro.sim.hostclock.HostClock` of this gateway's
        host.  Every timestamp the engine takes (``t0``/``t1``/``t4``,
        probe send/receive times, staleness reads, health evidence) is
        read from it; scheduling stays on the kernel.  Defaults to a
        pristine clock, which reads identically to the kernel.
    metrics:
        Sink for the ``tf.*`` metrics; defaults to a sample-free collector.
    """

    message_kinds = (MSG_REPLY, MSG_PERF, MSG_PROBE_REPLY)

    #: The engine owners a variant may substitute (A18's naive baseline and
    #: the campaign's seeded-bug drills do).
    book_cls: Type[RequestBook] = RequestBook
    evidence_cls: Type[EvidenceAdmission] = EvidenceAdmission

    def __init__(
        self,
        sim: Simulator,
        host: str,
        transport: TransportAPI,
        group_comm: GroupCommunication,
        interface: ServiceInterface,
        qos: QoSSpec,
        config: EngineConfig = EngineConfig(),
        *,
        marshalling: Optional[MarshallingModel] = None,
        rng: Optional[np.random.Generator] = None,
        clock: Optional[HostClock] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        if qos.service != interface.name:
            raise ValueError(
                f"QoS names service {qos.service!r} but the interface is "
                f"{interface.name!r}"
            )
        self.sim = sim
        self.clock = clock if clock is not None else HostClock(sim, host=host)
        self.host = host
        self.transport = transport
        self.group_comm = group_comm
        self.interface = interface
        self.service = interface.name
        self.marshalling = marshalling or MarshallingModel()
        self.selection_charge_ms = config.selection_charge_ms
        self.metrics = metrics or MetricsCollector(keep_samples=False)
        self._wire = {"service": self.service, "client": host}

        # Track the service group: the engine is seeded from the current
        # view and follows future ones; subscribe to performance pushes.
        group_comm.on_view_change(self.service, host, self._on_view_change)
        self.engine = TimingFaultEngine(
            self,
            qos,
            config,
            group_comm.members(self.service),
            rng=rng if rng is not None else seeded_generator(0),
            metrics=self.metrics,
            labels={"client": host, "service": self.service},
            book=self.book_cls(),
            evidence=self.evidence_cls(config.health_config),
        )
        self.repository = self.engine.models.repository
        self.estimator = self.engine.models.estimator
        self._send_subscription()
        group_comm.failure_detector.on_crash(self.engine.on_crash)
        self.engine.start()

    # What experiments, the auditor and the benchmark read off the handler.
    qos = _engine_view("qos")
    policy = _engine_view("policy")
    stats = _engine_view("stats")
    health = _engine_view("health")
    load_tracker = _engine_view("load_tracker")
    admission = _engine_view("admission")
    quarantined_traffic = _engine_view("quarantined_traffic")
    adaptive_timeout_quantile = _engine_view("adaptive_timeout_quantile")
    sheds = _engine_view("sheds")
    probes_sent = _engine_view("probes_sent")
    probes_expired = _engine_view("probes_expired")
    retransmissions = _engine_view("retransmissions")
    clock_rejections = _engine_view("clock_rejections")

    @property
    def pending(self) -> Mapping[int, RequestRecord]:
        """Open request records by ``msg_id`` (read-only view of the book)."""
        return self.engine.book.pending

    @property
    def probes(self) -> Mapping[int, Tuple[float, str]]:
        """Probes in flight, ``msg_id → (sent_at, replica)`` (read-only)."""
        return self.engine.book.probes

    @property
    def members(self) -> List[str]:
        """The replicas of the current group view, as the engine sees it."""
        return self.engine.models.members

    def request_classes(self) -> List[str]:
        """Class keys with performance state (always includes default)."""
        return self.engine.models.classes()

    def system_load(self) -> float:
        """The load index over the active (non-quarantined) replica set."""
        return self.engine.system_load()

    def renegotiate_qos(self, new_spec: QoSSpec) -> None:
        """Adopt a new QoS specification at runtime (paper §4)."""
        self.engine.renegotiate(new_spec)

    def quiesce_probes(self) -> None:
        """Expire every in-flight probe now (drain-time audits call this)."""
        self.engine.quiesce_probes()

    def lifecycle_leaks(self) -> Dict[str, List[Any]]:
        """State that must be empty once the system has fully drained."""
        return self.engine.leaks()

    # -- membership tracking -----------------------------------------------------
    def _on_view_change(self, view: GroupView) -> None:
        if self.engine.on_view(view.members):
            # New replicas need this client's subscription too.
            self._send_subscription()

    def _send_subscription(self) -> None:
        if self.group_comm.members(self.service):
            self.group_comm.send(
                self.service, self._message(MSG_SUBSCRIBE, "", self._wire, 64)
            )

    # -- request path (RequestInterceptor) ------------------------------------------
    def submit(self, request: MethodRequest) -> Event:
        """Intercept a client invocation; returns its outcome event."""
        t0 = self.clock.now
        outcome_event = self.sim.event()
        signature = self.interface.method(request.method)
        call, marshal_cost = self.marshalling.marshal_request(request, signature)
        # Marshalling plus selection are CPU work on the client host,
        # charged before the request hits the wire (paper §5.3.3).
        self.sim.call_in(
            marshal_cost + self.selection_charge_ms,
            lambda: self.engine.dispatch(request, call, t0, outcome_event),
        )
        return outcome_event

    # -- reply path ------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if message.kind == MSG_PERF:
            self.engine.on_perf(payload["perf"])
        elif message.kind == MSG_PROBE_REPLY:
            self.engine.on_probe_reply(
                message.correlation_id, payload["replica"], payload["queue_length"]
            )
        else:  # MSG_REPLY
            self.engine.on_reply(
                message.correlation_id,
                payload["replica"],
                payload["perf"],
                payload["reply"],
            )

    # -- the engine's port -------------------------------------------------------
    @property
    def now(self) -> float:
        """This host's clock — every timestamp the engine takes."""
        return self.clock.now

    def _message(
        self, kind: str, destination: str, payload: Dict[str, Any], size: int
    ) -> Message:
        return Message(self.host, destination, kind, payload, size)

    def _request(self, call: MarshalledCall, destination: str) -> Message:
        payload = {"service": self.service, "call": call, "client": self.host}
        return self._message(MSG_REQUEST, destination, payload, call.size_bytes)

    def send_request(
        self, call: MarshalledCall, targets: Sequence[str]
    ) -> Tuple[int, Tuple[str, ...]]:
        """Multicast ``call`` to ``targets``; returns (msg_id, addressed)."""
        message = self._request(call, "")
        sent_to: Tuple[str, ...] = ()
        if targets:
            try:
                sent_to = tuple(self.group_comm.send(self.service, message, targets))
            except MembershipError:
                pass  # the whole selection raced an eviction
        return message.msg_id, sent_to

    def send_copy(self, call: MarshalledCall, target: str) -> int:
        """Retransmit ``call`` to ``target`` alone; returns the copy's msg_id."""
        message = self._request(call, target)
        self.transport.send(message)
        return message.msg_id

    def send_probe(self, replica: str) -> int:
        """Ping ``replica``'s gateway; returns the probe's msg_id."""
        message = self._message(MSG_PROBE, replica, self._wire, 64)
        self.transport.send(message)
        return message.msg_id

    def decode(self, reply: MarshalledReply) -> Tuple[Any, float]:
        """Demarshal a reply into ``(value, cpu_cost_ms)``."""
        return self.marshalling.demarshal_reply(reply)

    def arm(
        self,
        delay_ms: float,
        callback: Callable[..., None],
        *args: Any,
        daemon: bool = False,
    ) -> None:
        """Run ``callback(*args)`` on the kernel after ``delay_ms``."""
        self.sim.call_in(delay_ms, lambda: callback(*args), daemon)

    def complete(
        self, token: Event, outcome: ReplyOutcome, after_ms: float = 0.0
    ) -> None:
        """Fire the invocation event ``after_ms`` (the upcall's CPU cost) from now."""
        token.succeed(outcome, after_ms)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.host!r} service={self.service!r} "
            f"pending={len(self.pending)}>"
        )
