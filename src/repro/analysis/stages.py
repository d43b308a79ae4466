"""Per-stage latency decomposition from request outcomes (paper §5.1).

The paper's authors "conducted experiments to determine the factors that
have a significant impact on a replica's response time" and concluded the
gateway-to-gateway delay, queuing delay and service time dominate — the
decomposition that becomes Equation 2.  This module reproduces that
off-line analysis: it splits each request's ``tr`` along the winning
reply's path, from the stamps its :class:`~repro.engine.ReplyOutcome`
carries.

Stages (Fig. 2 of the paper):

* ``client_ms``   — interception → transmission (marshal + selection, t0→t1)
* ``request_ms``  — client gateway → server gateway (t1→t2)
* ``queue_ms``    — FIFO wait at the replica (tq = t3 − t2)
* ``service_ms``  — servant execution (ts)
* ``reply_ms``    — reply leaving the server gateway → arrival (…→t4)

Every stamp is a host-clock reading: ``t0``/``t1``/``t4`` on the client
gateway's clock, ``t2`` and the reply-send instant on the replica's.  On
the paper's testbed (pristine clocks) those read the kernel bit for bit,
so the cross-host differences are exact; under a clock fault they carry
the fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..engine.types import ReplyOutcome
from ..metrics.stats import Summary, summarize

__all__ = ["RequestStages", "extract_stages", "stage_summaries"]


@dataclass(frozen=True)
class RequestStages:
    """Stage durations for one completed request (winning replica path)."""

    request_id: int
    replica: str
    client_ms: float
    request_ms: float
    queue_ms: float
    service_ms: float
    reply_ms: float
    total_ms: float

    def network_share(self) -> float:
        """Fraction of the response time spent on gateway-to-gateway paths.

        The paper justifies Equation 1's independence assumption with
        "the network delay is usually a small fraction of the replica's
        response time in a LAN environment" — this is that fraction.
        """
        if self.total_ms <= 0:
            return 0.0
        return (self.request_ms + self.reply_ms) / self.total_ms


def extract_stages(outcomes: Iterable[ReplyOutcome]) -> List[RequestStages]:
    """Decompose every replied request of ``outcomes``, by ``request_id``.

    Timeouts and sheds carry no reply and are skipped; a request won by a
    retransmitted copy is decomposed from that copy's send.
    """
    stages = []
    for outcome in sorted(outcomes, key=lambda o: o.request_id):
        perf = outcome.perf
        if perf is None or outcome.replica is None or outcome.t1_ms is None:
            continue
        stages.append(
            RequestStages(
                request_id=outcome.request_id,
                replica=outcome.replica,
                client_ms=outcome.t1_ms - outcome.t0_ms,
                request_ms=perf.enqueued_at_ms - outcome.t1_ms,
                queue_ms=perf.queue_delay_ms,
                service_ms=perf.service_time_ms,
                reply_ms=outcome.t4_ms - perf.sent_at_ms,
                total_ms=outcome.t4_ms - outcome.t0_ms,
            )
        )
    return stages


def stage_summaries(stages: List[RequestStages]) -> Dict[str, Summary]:
    """Summaries per stage name, plus ``total``."""
    if not stages:
        raise ValueError("no replied requests to decompose")
    return {
        "client": summarize([s.client_ms for s in stages]),
        "request-net": summarize([s.request_ms for s in stages]),
        "queueing": summarize([s.queue_ms for s in stages]),
        "service": summarize([s.service_ms for s in stages]),
        "reply-net": summarize([s.reply_ms for s in stages]),
        "total": summarize([s.total_ms for s in stages]),
    }
