"""The redundancy governor: a load-dependent cap on Algorithm 1's ``|K|``.

Algorithm 1 hedges timing faults with extra request copies, but each
copy is real work on the FIFO server queues: under a flash crowd the
hedging that protects one client widens every ``W_i`` pmf, which makes
the algorithm select *more* replicas — a metastable feedback loop
(Poloczek & Ciucu: replication flips from latency-reducing to
capacity-destroying past a load threshold).

:class:`GovernedSelectionPolicy` breaks the loop from outside the
algorithm: it wraps any :class:`~repro.core.selection.SelectionPolicy`
and, before each decision, translates the tracker's load index into a
redundancy cap via a linear ladder —

* ``load <= ENGAGE_LOAD``: no cap; the inner policy's decision is
  bit-for-bit what it would have produced un-wrapped;
* ``load >= SATURATE_LOAD``: the floor — ``{m0}`` plus the minimum set
  still satisfying the crash guarantee (``crash_tolerance + 1``
  members), never fewer while requests are being admitted;
* in between: linear interpolation, rounded up so the cap only bites
  when the load has genuinely moved.

The cap travels inside :class:`~repro.core.selection.SelectionContext`
(``max_redundancy``), so Algorithm 1 enforces it where the probabilities
are computed; the governor additionally trims the returned set as a
defense against cap-blind policies.  Quarantined replicas are excluded
from the capacity the load index is computed over, so quarantine makes
the index *rise* and the governor tighten — composition, not
re-amplification.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..core.selection import (
    GovernorMeta,
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)
from .load import LoadTracker

__all__ = ["GovernedSelectionPolicy"]

#: Load index at or below which the governor is inert (full hedging).
ENGAGE_LOAD = 0.4
#: Load index at or above which the cap sits at the floor.
SATURATE_LOAD = 1.2


class GovernedSelectionPolicy(SelectionPolicy):
    """Wrap a selection policy with the load-dependent redundancy cap."""

    def __init__(self, inner: SelectionPolicy, tracker: LoadTracker) -> None:
        self.inner = inner
        self.tracker = tracker
        self.name = f"governed-{inner.name}"
        #: Load index of the most recent decision (diagnostics).
        self.last_load = 0.0
        #: Decisions where the cap was below the available replica count.
        self.engagements = 0

    def floor_redundancy(self) -> int:
        """The ladder's floor before clamping to the available count.

        ``crash_tolerance + 1``: the protected best members plus one
        survivor, the structural crash guarantee.
        """
        return int(getattr(self.inner, "crash_tolerance", 1)) + 1

    def cap_for(self, load: float, available: int) -> int:
        """Map a load index to a redundancy cap over ``available`` replicas."""
        if available <= 0:
            return available
        floor_k = min(self.floor_redundancy(), available)
        if load <= ENGAGE_LOAD:
            return available
        if load >= SATURATE_LOAD:
            return floor_k
        fraction = (load - ENGAGE_LOAD) / (SATURATE_LOAD - ENGAGE_LOAD)
        span = available - floor_k
        return floor_k + int(math.ceil((1.0 - fraction) * span))

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        # Capacity = the non-quarantined replicas (quarantine shrinks it).
        names = list(ctx.replicas)
        if ctx.health is not None:
            active = [r for r in names if not ctx.health.is_quarantined(r)]
            if active:
                names = active
        load = self.tracker.system_load(names)
        self.last_load = load
        available = len(names)
        cap = self.cap_for(load, available)
        if ctx.max_redundancy is not None:
            cap = min(cap, ctx.max_redundancy)

        engaged = cap < available
        if not engaged and ctx.max_redundancy is None:
            # Inert governor: hand the context through untouched so the
            # decision is exactly the un-wrapped policy's.
            decision = self.inner.decide(ctx)
        else:
            decision = self.inner.decide(replace(ctx, max_redundancy=cap))
            if len(decision.selected) > cap:
                # Defense for cap-blind policies (static baselines).
                decision = SelectionDecision(
                    selected=decision.selected[: max(cap, 1)],
                    meta=decision.meta.copy(),
                )
        if engaged:
            self.engagements += 1

        governor_meta = GovernorMeta(
            load=load, cap=cap, available=available, engaged=engaged
        )
        meta: SelectionMeta = {**decision.meta, "governor": governor_meta}
        return SelectionDecision(selected=decision.selected, meta=meta)
