"""The engine's retransmission plan, validated where its numbers live."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPlan"]


@dataclass(frozen=True)
class RetryPlan:
    """Timeout-driven retransmission to the next-best replica.

    ``timeout_ms``: wait before the *first* retransmission (``None``:
    half the QoS deadline, a common rule of thumb).  ``max_retries``:
    retransmissions per request after the initial send.
    ``backoff_factor``: each successive retransmission waits this many
    times longer than the previous one (1.0: fixed interval).
    ``timeout_cap_ms``: upper bound on any single wait (``None``:
    ``max(base timeout, deadline)`` — backing off past the deadline only
    delays the inevitable timeout accounting).
    """

    timeout_ms: Optional[float] = None
    max_retries: int = 2
    backoff_factor: float = 2.0
    timeout_cap_ms: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject waits that are not positive and backoff that shrinks."""
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {self.timeout_ms}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout_cap_ms is not None and self.timeout_cap_ms <= 0:
            raise ValueError(
                f"timeout_cap_ms must be > 0, got {self.timeout_cap_ms}"
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
