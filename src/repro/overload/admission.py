"""Deadline-based admission control: fail fast instead of queueing to miss.

Under pressure a request whose best achievable ``F_{R_m0}(t - δ)`` is
already below a floor will almost surely miss its deadline; multicasting
it anyway burns server queue capacity that admitted requests need.  The
controller reads the selection decision's own probability annotations —
no extra model — and declares a *shed*: the client gets an immediate
fail-fast outcome, no copy reaches any replica, and the lifecycle
auditor books the request as completed-by-shed (exactly one of reply,
timeout, shed).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from ..core.selection import SelectionMeta

__all__ = ["AdmissionController"]

#: Load index at or above which shedding is considered at all; below it
#: every request is admitted regardless of its odds.
SHED_LOAD = 0.9
#: Minimum best-replica ``F_{R_i}(t - δ)`` a request must have to be
#: admitted at or above :data:`SHED_LOAD`.
FLOOR_PROBABILITY = 0.5


class AdmissionController:
    """Decides, per request, between admit and fail-fast shed."""

    def __init__(self) -> None:
        self.admitted = 0
        self.sheds = 0

    @staticmethod
    def best_probability(decision_meta: SelectionMeta) -> Optional[float]:
        """Best per-replica probability annotated on the decision.

        ``None`` when the decision carries no model (bootstrap, static
        fallback) — such requests are always admitted: without evidence
        of hopelessness, shedding would be guessing.
        """
        probabilities = decision_meta.get("probabilities")
        # Any mapping (the dynamic policy's is a ProbabilityRow, not a
        # dict).  The isinstance guard is redundant under the checker but
        # kept as runtime defense: untyped callers (tests, notebooks)
        # hand-build meta dicts.
        if not isinstance(probabilities, Mapping) or not probabilities:
            return None
        return max(float(p) for p in probabilities.values())

    def should_shed(
        self, decision_meta: SelectionMeta, load: float
    ) -> bool:
        """Admit-or-shed verdict; updates the controller's counters."""
        shed = False
        if load >= SHED_LOAD:
            best = self.best_probability(decision_meta)
            if best is not None and best < FLOOR_PROBABILITY:
                shed = True
        if shed:
            self.sheds += 1
        else:
            self.admitted += 1
        return shed

    def __repr__(self) -> str:
        return f"<AdmissionController admitted={self.admitted} sheds={self.sheds}>"
