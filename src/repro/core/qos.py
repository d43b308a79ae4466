"""QoS specifications and the timing-failure accounting contract.

A client "expresses its requirements as a quality of service (QoS)
specification ... the name of a service, the time by which the client
wants to receive a response after it transmits its request to this
service, and the minimum probability with which it wants this time
constraint to be met" (paper §4).  The client may negotiate the spec at
runtime; if the system cannot keep the timely-response frequency above the
requested minimum, it is notified through a callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["MIN_SAMPLES", "QoSSpec", "TimingFailureStats", "QoSViolationCallback"]

#: Responses a client must have seen before its observed timely frequency
#: can report a QoS violation: with fewer, the frequency is noise.
MIN_SAMPLES = 10

# Signature of the client callback invoked on a QoS violation:
# callback(service_name, observed_timely_probability, spec)
QoSViolationCallback = Callable[[str, float, "QoSSpec"], None]


@dataclass(frozen=True)
class QoSSpec:
    """A client's timing requirement for one service.

    Attributes
    ----------
    service:
        Name of the replicated service.
    deadline_ms:
        Response must arrive within this many milliseconds of the client's
        request (the paper's ``t``).
    min_probability:
        Minimum probability of a timely response (the paper's ``Pc(t)``).
        ``0.0`` means the client tolerates any failure rate — the paper
        uses this as the worst-case configuration in §6.
    """

    service: str
    deadline_ms: float
    min_probability: float

    def __post_init__(self) -> None:
        if not 0 < self.deadline_ms < math.inf:  # (NaN included)
            raise ValueError(
                f"deadline must be finite and > 0 ms, got {self.deadline_ms}"
            )
        if not 0.0 <= self.min_probability <= 1.0:
            raise ValueError(
                f"min_probability must be in [0, 1], got {self.min_probability}"
            )

    @property
    def max_failure_probability(self) -> float:
        """The failure rate the client is willing to tolerate."""
        return 1.0 - self.min_probability


class TimingFailureStats:
    """Counts timely vs. late responses for one client/service pair.

    The handler "maintains a counter that keeps track of the number of
    times its client has failed to receive a timely response" (§5.4.2) and
    issues a callback when the observed timely frequency falls below the
    spec's minimum probability, once :data:`MIN_SAMPLES` responses are in.
    """

    def __init__(self) -> None:
        self.responses = 0
        self.timing_failures = 0

    def record(self, response_time_ms: float, deadline_ms: float) -> bool:
        """Record one response; returns ``True`` if it was a timing failure."""
        self.responses += 1
        failed = response_time_ms > deadline_ms
        if failed:
            self.timing_failures += 1
        return failed

    @property
    def timely_responses(self) -> int:
        """Number of responses that met the deadline."""
        return self.responses - self.timing_failures

    @property
    def observed_timely_probability(self) -> float:
        """Fraction of responses that met the deadline (1.0 before any)."""
        if self.responses == 0:
            return 1.0
        return self.timely_responses / self.responses

    def violates(self, spec: QoSSpec) -> bool:
        """Whether the observed frequency has fallen below the spec."""
        if self.responses < MIN_SAMPLES:
            return False
        return self.observed_timely_probability < spec.min_probability

    def reset(self) -> None:
        """Clear the counters (e.g. after renegotiation)."""
        self.responses = 0
        self.timing_failures = 0

    def __repr__(self) -> str:
        return (
            f"<TimingFailureStats responses={self.responses} "
            f"failures={self.timing_failures}>"
        )
