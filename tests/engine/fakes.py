"""A recording port with a manual clock — the engine's whole outside world.

Nothing here touches ``repro.sim``/``net``/``group``/``gateway``: the
engine under test sees only :class:`FakePort`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.qos import QoSSpec
from repro.core.selection import SelectionContext, SelectionDecision, SelectionPolicy
from repro.engine import (
    EngineConfig,
    EvidenceAdmission,
    PerformanceUpdate,
    ReplyOutcome,
    RequestBook,
    TimingFaultEngine,
)
from repro.metrics.collector import MetricsCollector
from repro.orb.object import MethodRequest
from repro.rng import seeded_generator

SERVICE = "svc"
REPLICAS = ("s-1", "s-2", "s-3")
REQUEST = MethodRequest(SERVICE, "process")


@dataclass
class Timer:
    due: float
    callback: Callable[..., None]
    args: Tuple[Any, ...]
    daemon: bool


class FakePort:
    """Implements :class:`repro.engine.EnginePort` with lists and a float."""

    def __init__(self) -> None:
        self.clock = 0.0
        self._ids = itertools.count(1)
        #: (kind, msg_id, targets) for every request / copy / probe sent.
        self.sent: List[Tuple[str, int, Tuple[str, ...]]] = []
        self.timers: List[Timer] = []
        #: token -> every outcome delivered for it.
        self.completions: Dict[Any, List[ReplyOutcome]] = {}
        #: Replicas the "group layer" fails to address (racing eviction).
        self.unreachable: Set[str] = set()

    @property
    def now(self) -> float:
        return self.clock

    def _send(self, kind: str, targets: Sequence[str]) -> int:
        msg_id = next(self._ids)
        self.sent.append((kind, msg_id, tuple(targets)))
        return msg_id

    def send_request(self, call: Any, targets: Sequence[str]):
        sent_to = tuple(t for t in targets if t not in self.unreachable)
        return self._send("request", sent_to), sent_to

    def send_copy(self, call: Any, target: str) -> int:
        return self._send("copy", (target,))

    def send_probe(self, replica: str) -> int:
        return self._send("probe", (replica,))

    def decode(self, reply: Any) -> Tuple[Any, float]:
        return reply, 0.25

    def arm(self, delay_ms, callback, *args, daemon: bool = False) -> None:
        self.timers.append(Timer(self.clock + delay_ms, callback, args, daemon))

    def complete(self, token, outcome, after_ms: float = 0.0) -> None:
        self.completions.setdefault(token, []).append(outcome)

    # -- test conveniences -------------------------------------------------
    def fire(self, timer: Timer) -> None:
        """Run one armed timer (advancing the clock to its due time)."""
        self.timers.remove(timer)
        self.clock = max(self.clock, timer.due)
        timer.callback(*timer.args)

    def armed(self, callback: Callable[..., None]) -> List[Timer]:
        """Timers waiting to call ``callback`` (a bound engine method)."""
        return [t for t in self.timers if t.callback == callback]

    def outcome(self, token: Any) -> ReplyOutcome:
        """The one outcome ``token`` completed with."""
        (outcome,) = self.completions[token]
        return outcome


class RankedPolicy(SelectionPolicy):
    """Send to the first ``width`` replicas in name order; rank all of them.

    ``probability`` (when set) is annotated as every replica's modelled
    chance, which is what the admission controller sheds on.
    """

    name = "ranked"

    def __init__(self, width: int = 2, probability: Optional[float] = None):
        self.width = width
        self.probability = probability

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        ranking = sorted(ctx.replicas)
        meta: Dict[str, Any] = {}
        if ctx.health is not None:
            usable = [r for r in ranking if not ctx.health.is_quarantined(r)]
            if ranking and not usable:
                meta["quarantine_override"] = True  # serve anyway, flagged
            ranking = usable or ranking
        meta["ranking"] = ranking
        if self.probability is not None:
            meta["probabilities"] = {r: self.probability for r in ranking}
        return SelectionDecision(selected=tuple(ranking[: self.width]), meta=meta)


def perf(replica: str, ts: float = 5.0, tq: float = 1.0, queue: int = 0, **extra):
    return PerformanceUpdate(replica, SERVICE, ts, tq, queue, **extra)


def make_engine(
    port: FakePort,
    members: Sequence[str] = REPLICAS,
    policy: Optional[SelectionPolicy] = None,
    deadline_ms: float = 100.0,
    book: Optional[RequestBook] = None,
    evidence: Optional[EvidenceAdmission] = None,
    **options: Any,
) -> TimingFaultEngine:
    """An engine on ``port`` with quiet sinks and sensible small defaults.

    ``options`` are :class:`EngineConfig` fields.
    """
    options.setdefault("response_timeout_factor", 3.0)
    engine = TimingFaultEngine(
        port,
        QoSSpec(SERVICE, deadline_ms, 0.0),
        EngineConfig(policy=policy or RankedPolicy(), **options),
        members,
        rng=seeded_generator(0),
        metrics=MetricsCollector(keep_samples=False),
        labels={"client": "c-1", "service": SERVICE},
        book=book,
        evidence=evidence,
    )
    engine.start()
    return engine
