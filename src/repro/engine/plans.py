"""The engine's two timing plans, each validated where its numbers live."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ProbePlan", "RetryPlan"]


@dataclass(frozen=True)
class ProbePlan:
    """When the engine probes replica gateways out of band (§8 extension).

    ``staleness_ms``: replicas whose records are older than this are
    probed every ``interval_ms`` (``None``: no staleness probing).
    ``bootstrap``: probe every member once at startup.  A probe whose
    reply is lost is given up on after one interval.
    """

    staleness_ms: Optional[float] = None
    interval_ms: float = 200.0
    bootstrap: bool = False

    def __post_init__(self) -> None:
        """Reject non-positive thresholds."""
        if self.staleness_ms is not None and self.staleness_ms <= 0:
            raise ValueError(
                f"probe_staleness_ms must be > 0, got {self.staleness_ms}"
            )
        if self.interval_ms <= 0:
            raise ValueError(
                f"probe_interval_ms must be > 0, got {self.interval_ms}"
            )


@dataclass(frozen=True)
class RetryPlan:
    """Timeout-driven retransmission to the next-best replica.

    The four numbers are the ``retry_*``/``max_retries`` keywords of
    :class:`~repro.gateway.handlers.retransmit.RetransmittingClientHandler`,
    documented there.
    """

    timeout_ms: Optional[float] = None
    max_retries: int = 2
    backoff_factor: float = 2.0
    timeout_cap_ms: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject waits that are not positive and backoff that shrinks."""
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError(
                f"retry_timeout_ms must be > 0, got {self.timeout_ms}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"retry_backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout_cap_ms is not None and self.timeout_cap_ms <= 0:
            raise ValueError(
                f"retry_timeout_cap_ms must be > 0, got {self.timeout_cap_ms}"
            )

    def wait_ms(self, attempt: int, deadline_ms: float) -> float:
        """Wait before retransmission number ``attempt`` (1-based)."""
        base = self.timeout_ms if self.timeout_ms is not None else deadline_ms / 2.0
        cap = (
            self.timeout_cap_ms
            if self.timeout_cap_ms is not None
            else max(base, deadline_ms)
        )
        return min(base * self.backoff_factor ** (attempt - 1), cap)
