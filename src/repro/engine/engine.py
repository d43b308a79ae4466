"""The timing-fault engine (paper §5.4): decide, send, mine every reply, account.

One request's life: ``dispatch`` runs the selection policy, sheds the
request or sends it to the selected set ``K`` at ``t1`` and arms the
response timeout; ``on_reply`` delivers the *first* reply and mines every
reply — first, redundant or late — for ``(ts, tq, queue)``; ``expire``
completes a silent request as a timing failure.  ``tr = t4 − t0 > t``
is counted per request and the violation callback fires when the observed
timely frequency drops below the QoS minimum.

The engine never schedules, sends or reads a clock itself: it calls the
:class:`~repro.engine.types.EnginePort` it was given.  Lifecycle records
belong to the :class:`~repro.engine.book.RequestBook`, admission tests to
the :class:`~repro.engine.admission.EvidenceAdmission`, per-class history
to the :class:`~repro.engine.models.ClassModels`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.qos import QoSSpec, TimingFailureStats
from ..core.selection import (
    DynamicSelectionPolicy,
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)
from ..health import HealthMonitor
from ..orb.object import MethodRequest
from ..overload import AdmissionController, GovernedSelectionPolicy, LoadTracker
from .admission import EvidenceAdmission
from .book import RequestBook, RequestRecord
from .config import EngineConfig
from .models import ClassModels
from .types import (
    DEFAULT_CLASS,
    EnginePort,
    PerformanceUpdate,
    ReplyOutcome,
)

if TYPE_CHECKING:  # passed in, never constructed here
    from ..metrics.collector import MetricsCollector

__all__ = ["TimingFaultEngine"]

#: Retransmissions per request after the original send (``retry`` on).
MAX_RETRIES = 2


class TimingFaultEngine:
    """Client-side timing-fault logic behind one :class:`EnginePort`.

    Every behaviour option comes from the one :class:`EngineConfig`.
    ``health`` is ``None`` without a health config, ``load_tracker`` and
    ``admission`` are ``None`` with the overload subsystem off
    (docs/ARCHITECTURE.md §5/§6); ``policy`` is the configured policy,
    wrapped in the redundancy governor when the overload subsystem is on.
    ``book`` and ``evidence`` are the owners a variant may substitute.
    """

    def __init__(
        self,
        port: EnginePort,
        qos: QoSSpec,
        config: EngineConfig,
        members: Sequence[str],
        *,
        rng: np.random.Generator,
        metrics: MetricsCollector,
        labels: Dict[str, str],
        book: Optional[RequestBook] = None,
        evidence: Optional[EvidenceAdmission] = None,
    ) -> None:
        """Wire the owners together and adopt the initial view ``members``."""
        self.port = port
        self.qos = qos
        self.config = config
        self.policy: SelectionPolicy = config.policy or DynamicSelectionPolicy(
            crash_tolerance=1,
            compensate_overhead=True,
            fixed_overhead_ms=config.selection_charge_ms,
        )
        self.models = ClassModels(config)
        self.book = book or RequestBook()
        self.evidence = evidence or EvidenceAdmission(config.health_config)
        self.rng = rng
        self.metrics = metrics
        self.labels = labels
        self.stats = TimingFailureStats()
        self._violation_reported = False
        self.sheds = 0
        self.probes_sent = 0
        self.probes_expired = 0
        self.retransmissions = 0
        self.clock_rejections = 0
        # (msg_id, offending replicas) pairs — requests dispatched to a
        # quarantined replica.  Must stay empty; surfaced as a lifecycle
        # leak so the fault-injection auditor enforces the invariant.
        self.quarantined_traffic: List[Tuple[int, Tuple[str, ...]]] = []
        self.models.sync(members)
        self.health: Optional[HealthMonitor] = None
        #: Quantile of the adaptive response timeout (``None``: fixed).
        self.adaptive_timeout_quantile: Optional[float] = None
        health = config.health_config
        if health is not None:
            self.health = HealthMonitor(health, listener=config.health_listener)
            self.health.sync_members(self.models.members, port.now)
            self.adaptive_timeout_quantile = health.adaptive_timeout_quantile
        self.load_tracker: Optional[LoadTracker] = None
        self.admission: Optional[AdmissionController] = None
        if config.overload_config:
            self.load_tracker = LoadTracker(self.book.awaiting_replies)
            self.policy = GovernedSelectionPolicy(self.policy, self.load_tracker)
            self.admission = AdmissionController()

    def start(self) -> None:
        """Arm the probe tick and the bootstrap round, when configured."""
        config = self.config
        if config.probe_staleness_ms is not None or self.health is not None:
            self.port.arm(config.probe_interval_ms, self.probe_tick, daemon=True)
        if config.bootstrap_probes:
            self.port.arm(0.0, self._probe_all, daemon=True)

    # -- membership ------------------------------------------------------------
    def on_view(self, members: Sequence[str]) -> bool:
        """Adopt a new group view; true when replicas joined."""
        joined = bool(set(members) - set(self.models.members))
        self.models.sync(members)
        if self.health is not None:
            self.health.sync_members(self.models.members, self.port.now)
        if self.load_tracker is not None:
            self.load_tracker.sync_members(self.models.members)
        return joined

    def on_crash(self, host: str) -> None:
        """Failure-detector declaration: quarantine immediately.

        The monitor ignores hosts it does not track (e.g. other clients),
        so this can safely receive every declaration.
        """
        if self.health is not None:
            self.health.record_crash(host, self.port.now)

    def _usable(self) -> List[str]:
        """The view minus quarantined replicas (the full view if none is left)."""
        members = self.models.members
        if self.health is None:
            return members
        health = self.health
        return [r for r in members if not health.is_quarantined(r)] or members

    def system_load(self) -> float:
        """The load index over the active (non-quarantined) replica set."""
        if self.load_tracker is None:
            return 0.0
        return self.load_tracker.system_load(self._usable())

    # -- QoS -------------------------------------------------------------------
    def renegotiate(self, new_spec: QoSSpec) -> None:
        """Adopt a new QoS specification at runtime (paper §4)."""
        if new_spec.service != self.qos.service:
            raise ValueError(
                f"new spec names {new_spec.service!r}, handler serves "
                f"{self.qos.service!r}"
            )
        self.qos = new_spec
        self.stats.reset()
        self._violation_reported = False

    def _account(self, response_time: float) -> None:
        self.stats.record(response_time, self.qos.deadline_ms)
        if self.stats.violates(self.qos):
            if not self._violation_reported and self.config.violation_callback:
                self.config.violation_callback(
                    self.qos.service,
                    self.stats.observed_timely_probability,
                    self.qos,
                )
            self._violation_reported = True
        else:
            self._violation_reported = False

    # -- request path ----------------------------------------------------------
    def dispatch(
        self, request: MethodRequest, call: Any, t0: float, token: Any
    ) -> int:
        """Select, transmit and register one request; returns its msg_id.

        Returns ``-1`` when the admission controller shed the request
        (nothing was sent, no record was opened).
        """
        class_key = self.models.classify(request)
        decision = self._decide(request, class_key)
        if self.admission is not None:
            load = self.system_load()
            self.metrics.observe("tf.load_index", load, labels=self.labels)
            if self.admission.should_shed(decision.meta, load):
                self._shed(decision, load, t0, token)
                return -1
        t1 = self.port.now
        msg_id, sent_to = self.port.send_request(call, decision.selected)
        if sent_to:
            decision = SelectionDecision(selected=sent_to, meta=decision.meta)
        self.book.open(
            msg_id,
            RequestRecord(
                request, class_key, t0, t1, token, decision, expected=set(sent_to)
            ),
        )
        if (
            self.health is not None
            and sent_to
            and not decision.meta.get("quarantine_override", False)
        ):
            # Invariant: quarantined replicas receive no client traffic
            # (the override — every replica quarantined — is exempt).
            health = self.health
            violated = tuple(r for r in sent_to if health.is_quarantined(r))
            if violated:
                self.quarantined_traffic.append((msg_id, violated))
        # The response timeout also keeps the run alive while a reply is
        # in flight.  A request that reached zero replicas (empty view or
        # a racing eviction) can never be answered: fail fast as a timeout
        # instead of burning factor × deadline.
        self.port.arm(
            self.response_timeout_ms(sent_to, class_key) if sent_to else 0.0,
            self.expire, msg_id,
        )
        if self.config.retry:
            ranking = list(decision.meta.get("ranking", []))
            self._arm_retry(msg_id, call, ranking, list(decision.selected), 1)
        return msg_id

    def _decide(self, request: MethodRequest, class_key: str) -> SelectionDecision:
        if not self.models.members:
            return SelectionDecision(selected=(), meta={"no_replicas": True})
        ctx = SelectionContext(
            replicas=list(self.models.members),
            estimator=self.models.estimator_for(class_key),
            qos=self.qos,
            now_ms=self.port.now,
            rng=self.rng,
            health=self.health,
        )
        decision = self.policy.decide(ctx)
        if class_key != DEFAULT_CLASS:
            decision.meta["request_class"] = class_key
        return decision

    def response_timeout_ms(self, selected: Sequence[str], class_key: str) -> float:
        """How long to wait for a reply before declaring the request dead.

        A fixed ``factor × deadline`` by default.  With an adaptive
        quantile configured, the timeout follows the model instead — the
        worst selected replica's predicted ``R_i`` at that quantile — so a
        silent replica is billed an omission after roughly how long a
        *working* one would plausibly take, not after a 10× grace period.
        Clamped to ``[deadline, factor × deadline]``: never give up before
        the deadline has actually passed, never wait longer than the
        fixed timeout.
        """
        ceiling = self.qos.deadline_ms * self.config.response_timeout_factor
        if self.adaptive_timeout_quantile is None or not selected:
            return ceiling
        estimator = self.models.estimator_for(class_key)
        quantiles: List[float] = []
        for replica in selected:
            try:
                pmf = estimator.response_time_pmf(replica)
            except KeyError:
                pmf = None  # mid-view-change: not tracked yet
            if pmf is None:
                return ceiling  # cold model: keep the generous fixed wait
            quantiles.append(pmf.quantile(self.adaptive_timeout_quantile))
        return min(ceiling, max(self.qos.deadline_ms, max(quantiles)))

    def _shed(
        self, decision: SelectionDecision, load: float, t0: float, token: Any
    ) -> None:
        """Fail-fast reject one request before any copy hits the wire.

        Sheds are the third completion outcome: no record is opened, no
        replica sees the request, and the response-time stats are left
        untouched (a shed is load control, not a timing fault).
        """
        self.sheds += 1
        meta: SelectionMeta = {**decision.meta, "shed_load": load}
        t4 = self.port.now
        outcome = ReplyOutcome(
            value=None,
            response_time_ms=max(0.0, t4 - t0),
            timely=False,
            timed_out=False,
            replica=None,
            redundancy=0,
            request_id=-1,
            t0_ms=t0,
            t1_ms=None,
            t4_ms=t4,
            perf=None,
            decision_meta=meta,
            shed=True,
        )
        self.port.complete(token, outcome)

    # -- evidence intake -------------------------------------------------------
    def on_perf(self, perf: PerformanceUpdate) -> bool:
        """Mine one performance report (a push, or a reply's embedded copy)."""
        now = self.port.now  # one read of the host clock per report
        admitted = self.evidence.admit(perf)
        if admitted is None:
            self._clock_anomaly(perf.replica, now)
            return False
        if not self.models.record(admitted, now):
            return False
        if self.load_tracker is not None:
            self.load_tracker.observe_reply(
                admitted.replica,
                admitted.queue_length,
                admitted.queue_delay_ms,
                admitted.service_time_ms,
            )
        return True

    def _clock_anomaly(self, replica: str, now_ms: float) -> None:
        """One physically impossible / incoherent sample was dropped."""
        self.clock_rejections += 1
        if self.health is not None:
            self.health.record_clock_anomaly(replica, now_ms)

    def on_reply(
        self, correlation_id: int, replica: str, perf: PerformanceUpdate, reply: Any
    ) -> None:
        """One reply arrived: mine it, and deliver it if it is the first."""
        t4 = self.port.now
        msg_id, record, t1 = self.book.resolve(correlation_id)
        if record is None:
            self.on_perf(perf)
            return  # post-expiry (or unknown) reply: evidence only
        # Every reply — first or redundant — is mined for performance
        # data (paper §5.4.1), but only when the replica's reported
        # timings are coherent with this gateway's own clock.
        coherent = self.evidence.coherent(perf, t1, t4)
        if not coherent:
            self._clock_anomaly(replica, t4)
        elif self.on_perf(perf):
            self.models.record_gateway_delay(
                record.class_key,
                replica,
                self.evidence.gateway_delay(perf, t1, t4),
                t4,
            )
            if self.health is not None:
                self.health.record_coherent_sample(replica)
        self.book.heard(record, replica)
        if self.health is not None and coherent:
            # Every coherent reply — first or redundant — is health
            # evidence: within the deadline a success, a straggler a
            # timing fault.  (A timely reply from a quarantined replica
            # proves liveness and re-admits it to probation.)  An
            # *incoherent* reply already became clock-anomaly evidence
            # above; letting it also "prove liveness" would re-admit the
            # very replica the clock quarantine just removed, flapping it
            # through probation forever.
            if t4 - record.t0 <= self.qos.deadline_ms:
                self.health.record_success(replica, t4)
            else:
                self.health.record_fault(replica, t4, kind="timing")
        if self.book.claim(record):
            value, upcall_cost = self.port.decode(reply)
            outcome = self._outcome(msg_id, record, t1, t4, perf, value, replica)
            # The CORBA upcall happens after demarshalling.
            self.port.complete(record.token, outcome, upcall_cost)
        self.book.settle(msg_id)

    def _bill_silent(self, record: RequestRecord) -> None:
        """Replicas addressed but never heard from are omission faults."""
        if self.health is not None:
            for replica in self.book.bill_silent(record):
                self.health.record_fault(replica, self.port.now, kind="omission")

    def expire(self, msg_id: int) -> None:
        """The response timeout fired: give up on ``msg_id``'s silent replicas."""
        record = self.book.forget(msg_id)
        if record is None:
            return
        self._bill_silent(record)
        if not self.book.claim(record):
            return  # normal case: reply already delivered; just forget it
        outcome = self._outcome(msg_id, record, record.t1, self.port.now)
        self.port.complete(record.token, outcome)

    def _outcome(
        self,
        msg_id: int,
        record: RequestRecord,
        t1: float,
        t4: float,
        perf: Optional[PerformanceUpdate] = None,
        value: Any = None,
        replica: Optional[str] = None,
    ) -> ReplyOutcome:
        """Account ``tr`` and build the reply (or, with no replica, timeout) outcome."""
        # The paper's tr = t4 − t0, both on this gateway's clock; clamped
        # at zero so a backward-stepped client clock can never admit a
        # negative response time (auditor invariant, ARCHITECTURE.md §10).
        response_time = max(0.0, t4 - record.t0)
        # Judged before accounting: the violation callback may renegotiate.
        timely = replica is not None and response_time <= self.qos.deadline_ms
        self._account(response_time)
        return ReplyOutcome(
            value=value,
            response_time_ms=response_time,
            timely=timely,
            timed_out=replica is None,
            replica=replica,
            redundancy=record.decision.redundancy,
            request_id=msg_id,
            t0_ms=record.t0,
            t1_ms=t1,
            t4_ms=t4,
            perf=perf,
            decision_meta=record.decision.meta.copy(),
        )

    # -- retransmission -------------------------------------------------------
    def retry_wait_ms(self, attempt: int) -> float:
        """Wait before retransmission number ``attempt`` (1-based).

        Half the deadline first, doubling per attempt, capped at the
        deadline: backing off past it only delays the timeout accounting.
        """
        deadline_ms = self.qos.deadline_ms
        return min(deadline_ms / 2.0 * 2.0 ** (attempt - 1), deadline_ms)

    def _arm_retry(
        self, msg_id: int, call: Any, ranking: List[str], tried: List[str],
        attempt: int,
    ) -> None:
        if attempt <= MAX_RETRIES:
            self.port.arm(
                self.retry_wait_ms(attempt),
                self.retransmit, msg_id, call, ranking, tried, attempt,
            )

    def retransmit(
        self, msg_id: int, call: Any, ranking: List[str], tried: List[str],
        attempt: int,
    ) -> None:
        """A retry timer fired: send a copy to the next-best untried replica."""
        record = self.book.pending.get(msg_id)
        if record is None or record.completed:
            return
        # A retry timeout is omission evidence against every replica
        # addressed so far that stayed silent.
        self._bill_silent(record)
        live = set(self._usable())
        # Replicas billed as silent are the likely dark side of a
        # partition: retransmitting into them resurrects traffic a cut
        # already killed.  Prefer fresh targets, then responsive retried
        # ones.
        silent = record.faulted
        candidates = [
            r for r in ranking if r in live and r not in tried and r not in silent
        ] or [r for r in ranking if r in live and r not in silent]
        if not candidates:
            if any(r in live for r in ranking):
                # Every live replica is known-silent: skip the attempt
                # rather than pour copies into the dark side, but keep
                # the chain armed — a heal makes them eligible again, and
                # a reply that sneaks through still completes the request.
                self._arm_retry(msg_id, call, ranking, tried, attempt + 1)
            return
        target = candidates[0]
        tried.append(target)
        copy_id = self.port.send_copy(call, target)
        self.book.add_copy(copy_id, msg_id, target, self.port.now)
        self.retransmissions += 1
        self._arm_retry(msg_id, call, ranking, tried, attempt + 1)

    # -- probing (§8 extension + health re-admission) --------------------------
    def probe_tick(self) -> None:
        """Probe every stale or health-due replica without one in flight."""
        due: Set[str] = set()
        staleness_ms = self.config.probe_staleness_ms
        if staleness_ms is not None:
            due = self.models.stale(self.port.now, staleness_ms)
        if self.health is not None:
            due.update(self.health.due_probes(self.port.now))
        # A replica with a probe already in flight is not probed again —
        # neither by the staleness path (its window going stale mid-probe
        # must not double-probe it) nor by the health path.
        self._probe(due)
        self.port.arm(self.config.probe_interval_ms, self.probe_tick, daemon=True)

    def _probe_all(self) -> None:
        """Probe every member once, unconditionally (startup baseline)."""
        self._probe(set(self.models.members))

    def _probe(self, replicas: Set[str]) -> None:
        for replica in sorted(replicas - self.book.probed()):
            self.send_probe(replica)

    def send_probe(self, replica: str) -> None:
        """Ping ``replica``'s gateway and book the probe."""
        msg_id = self.port.send_probe(replica)
        self.book.open_probe(msg_id, replica, self.port.now)
        self.probes_sent += 1
        if self.health is not None:
            self.health.note_probe_sent(replica, self.port.now)
        # A probe whose reply is lost must not pin its record forever:
        # give up on it after one probe interval (it will be re-probed if
        # the replica stays stale), keeping the book bounded.
        self.port.arm(
            self.config.probe_interval_ms, self.expire_probe, msg_id, daemon=True
        )

    def quiesce_probes(self) -> None:
        """Expire every in-flight probe through the normal expiry path.

        Probe expiry is daemon work (a lost probe must not keep a run
        alive), so a finite-horizon run can stop with probes still in
        flight.  Drain-time audits call this before auditing: it applies
        exactly the bookkeeping the expiry timers would have, just
        without waiting out the probe interval.
        """
        for msg_id in sorted(self.book.probes):
            self.expire_probe(msg_id)

    def expire_probe(self, msg_id: int) -> None:
        """Give up on probe ``msg_id`` (a no-op once it was answered)."""
        entry = self.book.close_probe(msg_id)
        if entry is None:
            return
        self.probes_expired += 1
        if self.health is not None:
            self.health.record_probe_failure(entry[1], self.port.now)

    def on_probe_reply(
        self, correlation_id: int, replica: str, queue_length: int
    ) -> None:
        """A probe came back: refresh ``T_i`` and the queue depth everywhere."""
        entry = self.book.close_probe(correlation_id)
        if entry is None:
            return
        # Measured entirely on this gateway's clock — the trusted T_i
        # baseline replica-reported timings are checked against.
        round_trip = max(0.0, self.port.now - entry[0])
        self.evidence.trust_round_trip(replica, round_trip)
        self.models.record_probe(replica, round_trip, queue_length, self.port.now)
        if self.load_tracker is not None and replica in self.models.members:
            self.load_tracker.observe_probe(replica, queue_length)
        if self.health is not None:
            self.health.record_probe_success(replica, self.port.now)

    # -- lifecycle invariants --------------------------------------------------
    def leaks(self) -> Dict[str, List[Any]]:
        """State that must be empty once the system has fully drained.

        Keys map invariant names to the offending entries; an empty dict
        means no request-lifecycle state leaked.  The fault-injection
        auditor (:mod:`repro.faultinject.auditor`) checks this at drain
        time.
        """
        leaks: Dict[str, List[Any]] = {
            **self.book.leaks(),
            **self.models.leaks(self.port.now),
        }
        if self.quarantined_traffic:
            # The no-traffic-to-quarantined invariant (ARCHITECTURE.md
            # §5): any entry here is a selection-layer bug.
            leaks["quarantined_traffic"] = [
                (msg_id, list(replicas))
                for msg_id, replicas in self.quarantined_traffic
            ]
        return leaks
