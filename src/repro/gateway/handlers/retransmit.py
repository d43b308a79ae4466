"""Retransmission-based client handler (the related-work strawman).

The paper's §1 observes that prior single-replica selection schemes leave
failure handling to the client: "it is the responsibility of the client
to retransmit its request upon failure to receive a response.  Such a
simple retransmission strategy, however, may not be suitable for clients
with specific time constraints."

:class:`RetransmittingClientHandler` implements that strategy faithfully
so the claim can be measured: each request goes to *one* replica (the
individually best); if no reply arrives within half the deadline the
request is retransmitted to the next-best replica not yet tried, and
once more after twice that wait (capped at the deadline).  Every
retransmission burns a chunk of the deadline — the structural
disadvantage the paper's concurrent redundancy avoids.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ...core.baselines import probability_key
from ...core.selection import (
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)
from ...engine import EngineConfig
from .timing_fault import TimingFaultClientHandler

__all__ = ["RetransmittingClientHandler", "BestSinglePolicy"]


class BestSinglePolicy(SelectionPolicy):
    """Rank replicas by F(t) and expose the full ranking to the handler."""

    name = "best-single"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
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
        ranking = sorted(replicas, key=probability_key(ctx))
        meta["ranking"] = ranking
        return SelectionDecision(selected=tuple(ranking[:1]), meta=meta)


class RetransmittingClientHandler(TimingFaultClientHandler):
    """Single-replica routing with timeout-driven retransmission.

    The base handler with :class:`BestSinglePolicy` forced and
    ``config.retry`` switched on: the request book files each
    retransmitted copy under its original request, so a copy's reply
    completes that request and is measured from the copy's own send time.
    """

    def __init__(
        self, *args: Any, config: EngineConfig = EngineConfig(), **kwargs: Any
    ) -> None:
        if config.policy is not None:
            raise ValueError(
                "RetransmittingClientHandler fixes its policy; do not pass one"
            )
        config = replace(config, policy=BestSinglePolicy(), retry=True)
        super().__init__(*args, config=config, **kwargs)

    def __repr__(self) -> str:
        return (
            f"<RetransmittingClientHandler {self.host!r} "
            f"retransmissions={self.retransmissions}>"
        )
