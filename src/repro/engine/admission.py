"""Evidence admission: which replica-reported timings enter the model.

Replica-reported measurements are admitted only when coherent with this
gateway's own same-clock observations (docs/ARCHITECTURE.md §10): one
sample from a faulty clock poisons the sliding windows for the next ``l``
requests.  Every trusted quantity here — ``t1``, ``t4``, probe round
trips — was read on the gateway's own clock, so no check assumes
synchronization.  The deflation test's factor and on/off switch
(``clock_anomaly_after``) are :class:`~repro.health.HealthConfig`
fields; without a health config the test is off and only the inflation
test runs.  Both tests pad by
:data:`~repro.health.state.CLOCK_SLACK_MS`.

A variant that deliberately trusts faulty reports (A18's naive
baseline, ``experiments/clock_faults.py``) subclasses
:class:`EvidenceAdmission`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..health import HealthConfig
from ..health.state import CLOCK_SLACK_MS
from .types import PerformanceUpdate

__all__ = ["EvidenceAdmission"]


class EvidenceAdmission:
    """Admission tests for replica-reported ``(ts, tq)`` and the ``T_i`` sample."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        """Read the deflation factor and the clock-sanity switch from ``config``."""
        self.config = config if config is not None else HealthConfig()
        # Probe round trips, measured entirely on this host's clock — the
        # trusted T_i baseline the deflation test compares against.
        self._trusted_rtt: Dict[str, float] = {}

    def trust_round_trip(self, replica: str, round_trip_ms: float) -> None:
        """Remember ``replica``'s latest probed (same-clock) round trip."""
        self._trusted_rtt[replica] = round_trip_ms

    def admit(self, perf: PerformanceUpdate) -> Optional[PerformanceUpdate]:
        """The sample to record for ``perf``, or ``None`` to reject it.

        A negative duration is physically impossible — no healthy clock
        measures one — so the whole sample is rejected rather than
        clamped: a clamped zero would still poison the window with a
        fabricated "instant" service.  A non-finite one (NaN, ±inf) is
        rejected the same way: the repository would refuse it.
        """
        # (Written so that NaN, which fails every comparison, fails it.)
        if not (
            0.0 <= perf.service_time_ms < math.inf
            and 0.0 <= perf.queue_delay_ms < math.inf
        ):
            return None
        return perf

    def coherent(self, perf: PerformanceUpdate, t1: float, t4: float) -> bool:
        """Is a reply's reported timing coherent with our own clock?

        Two same-clock cross-checks:

        * **inflation** — the replica cannot have spent longer queueing
          and servicing than the whole round trip took
          (``tq + ts ≤ t4 − t1 + slack``);
        * **deflation** — a replica claiming near-zero ``tq + ts`` while
          the round trip dwarfs the probed (same-clock) round trip is
          under-reporting: its clock is slow, stopped, or stepped.  Only
          active with the clock-sanity health signal enabled *and* a
          trusted probe round trip to compare against.
        """
        config = self.config
        reported = perf.queue_delay_ms + perf.service_time_ms
        if reported > t4 - t1 + CLOCK_SLACK_MS:
            return False
        if config.clock_anomaly_after is not None and reported < 1.0:
            trusted = self._trusted_rtt.get(perf.replica)
            if trusted is not None:
                implied = t4 - t1 - reported
                ceiling = (
                    config.clock_deflation_factor * max(trusted, 1.0)
                    + CLOCK_SLACK_MS
                )
                if implied > ceiling:
                    return False
        return True

    def gateway_delay(self, perf: PerformanceUpdate, t1: float, t4: float) -> float:
        """The ``T_i`` sample a coherent reply contributes.

        ``t4 − t1`` is measured entirely on this gateway's clock;
        subtracting the replica's *duration* reports (never its absolute
        stamps) keeps constant skew out of the estimate by construction.
        """
        return t4 - t1 - perf.queue_delay_ms - perf.service_time_ms
