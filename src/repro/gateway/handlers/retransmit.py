"""Retransmission-based client handler (the related-work strawman).

The paper's §1 observes that prior single-replica selection schemes leave
failure handling to the client: "it is the responsibility of the client
to retransmit its request upon failure to receive a response.  Such a
simple retransmission strategy, however, may not be suitable for clients
with specific time constraints."

:class:`RetransmittingClientHandler` implements that strategy faithfully
so the claim can be measured: each request goes to *one* replica (the
individually best); if no reply arrives within ``retry_timeout_ms`` the
request is retransmitted to the next-best replica not yet tried, up to
``max_retries`` times.  Every retransmission burns a chunk of the
deadline — the structural disadvantage the paper's concurrent redundancy
avoids.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ...core.selection import (
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)
from ...engine import RetryPlan
from .timing_fault import TimingFaultClientHandler

__all__ = ["RetransmittingClientHandler", "BestSinglePolicy"]


class BestSinglePolicy(SelectionPolicy):
    """Rank replicas by F(t) and expose the full ranking to the handler."""

    name = "best-single"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        def key(replica: str) -> Tuple[float, str]:
            probability = ctx.estimator.probability_by(
                replica, ctx.qos.deadline_ms
            )
            return (-(probability if probability is not None else -1.0), replica)

        replicas = list(ctx.replicas)
        meta: SelectionMeta = {}
        if ctx.health is not None:
            usable = [r for r in replicas if not ctx.health.is_quarantined(r)]
            if usable:
                replicas = usable
            elif replicas:
                # Every replica quarantined: trying one beats refusing to
                # serve; flag the override so the audit exempts it.
                meta["quarantine_override"] = True
        ranking = sorted(replicas, key=key)
        meta["ranking"] = ranking
        return SelectionDecision(selected=tuple(ranking[:1]), meta=meta)


class RetransmittingClientHandler(TimingFaultClientHandler):
    """Single-replica routing with timeout-driven retransmission.

    The base handler with :class:`BestSinglePolicy` and the engine's
    :class:`~repro.engine.RetryPlan` switched on: the request book files
    each retransmitted copy under its original request, so a copy's reply
    completes that request and is measured from the copy's own send time.

    Parameters (beyond the base handler's)
    --------------------------------------
    retry_timeout_ms:
        How long to wait for a reply before the *first* retransmission.
        ``None`` defaults to half the QoS deadline — a common rule of
        thumb.
    max_retries:
        Retransmissions per request after the initial send.
    retry_backoff_factor:
        Each successive retransmission of the same request waits
        ``factor`` times longer than the previous one (classic
        exponential backoff; 1.0 restores the fixed-interval strategy).
    retry_timeout_cap_ms:
        Upper bound on any single retry wait.  ``None`` defaults to
        ``max(base timeout, deadline)`` — backing off past the deadline
        only delays the inevitable timeout accounting.
    """

    def __init__(
        self,
        *args: Any,
        retry_timeout_ms: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_factor: float = 2.0,
        retry_timeout_cap_ms: Optional[float] = None,
        **kwargs: Any,
    ) -> None:
        if kwargs.get("policy") is not None:
            raise ValueError(
                "RetransmittingClientHandler fixes its policy; do not pass one"
            )
        kwargs["policy"] = BestSinglePolicy()
        self.retry_plan = RetryPlan(
            retry_timeout_ms, int(max_retries), float(retry_backoff_factor),
            retry_timeout_cap_ms,
        )
        super().__init__(*args, **kwargs)

    def __repr__(self) -> str:
        return (
            f"<RetransmittingClientHandler {self.host!r} "
            f"retransmissions={self.retransmissions}>"
        )
