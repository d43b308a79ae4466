"""Baseline replica-selection policies from the paper's related work.

Section 1 of the paper surveys selection schemes that "assign a single
replica to each client": nearest-replica by a distance metric
(Heidemann & Visweswaraiah), best historical average response time
(Sayal et al.), and load/delay-monitoring estimators (Fei et al.).  The
active and passive replication handlers of prior AQuA work correspond to
sending to *all* replicas and to the view's *primary*.  These are
implemented here behind the same
:class:`~repro.core.selection.SelectionPolicy` interface so the experiment
harness can compare them head-to-head with the paper's dynamic policy.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .selection import (
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
)

__all__ = [
    "AllReplicasPolicy",
    "PrimaryBackupPolicy",
    "SingleFastestPolicy",
    "FixedRedundancyPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "LowestMeanPolicy",
    "NearestPolicy",
    "ProbeEstimatePolicy",
    "BestSinglePolicy",
    "probability_key",
]


def _probability_score(ctx: SelectionContext, replica: str) -> float:
    """``−F(t)`` of ``replica``; unknowns rank last (prob −1)."""
    probability = ctx.estimator.probability_by(replica, ctx.qos.deadline_ms)
    return -(probability if probability is not None else -1.0)


def probability_key(ctx: SelectionContext) -> Callable[[str], Tuple[float, str]]:
    """Sort key ranking replicas by decreasing F(t), ties by name."""
    return lambda replica: (_probability_score(ctx, replica), replica)


class _RankedPrefixPolicy(SelectionPolicy):
    """Send to the ``redundancy`` replicas of lowest ``score`` (ties by name)."""

    def __init__(self, redundancy: int = 1) -> None:
        if redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {redundancy}")
        self.redundancy = int(redundancy)

    def score(self, ctx: SelectionContext, replica: str) -> float:
        """The rank of ``replica``, lower is better; ``−F(t)`` unless overridden."""
        return _probability_score(ctx, replica)

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        ordered = sorted(ctx.replicas, key=lambda r: (self.score(ctx, r), r))
        return SelectionDecision(selected=tuple(ordered[: self.redundancy]))


class AllReplicasPolicy(SelectionPolicy):
    """Active replication: every request goes to every live replica.

    Maximum fault tolerance, worst scalability — the anchor point of the
    paper's introduction.
    """

    name = "all-replicas"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        return SelectionDecision(selected=tuple(ctx.replicas))


class PrimaryBackupPolicy(SelectionPolicy):
    """Passive replication (Rubel [17]): every request goes to the primary.

    The primary is the first member (in name order) of the live replica
    list, so all clients converge on the same primary without
    coordination, and promotion on eviction is automatic — for the
    stateless services the paper targets it needs no state transfer.
    While a crashed primary is not yet evicted from the view, every
    request is lost: the availability gap the paper motivates.
    """

    name = "primary-backup"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        if not ctx.replicas:
            return SelectionDecision(selected=())
        primary = min(ctx.replicas)
        return SelectionDecision(selected=(primary,), meta={"primary": primary})


class SingleFastestPolicy(_RankedPrefixPolicy):
    """Send to the one replica most likely to meet the deadline.

    The "choose the best server, no redundancy" family of related work;
    a single crash while servicing loses the request entirely until the
    membership layer notices.
    """

    name = "single-fastest"

    def __init__(self) -> None:
        super().__init__(1)


class FixedRedundancyPolicy(_RankedPrefixPolicy):
    """Always send to the ``k`` individually best replicas.

    A static middle ground between single-fastest and all-replicas; the
    ablation experiments use it to show what the *adaptive* redundancy of
    Algorithm 1 buys over any fixed level.
    """

    name = "fixed-k"

    def __init__(self, redundancy: int) -> None:
        super().__init__(redundancy)
        self.name = f"fixed-{self.redundancy}"


class RandomPolicy(SelectionPolicy):
    """Uniformly random subset of size ``k`` — the no-information bound."""

    name = "random"

    def __init__(self, redundancy: int = 1) -> None:
        if redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {redundancy}")
        self.redundancy = int(redundancy)
        self.name = f"random-{self.redundancy}"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        k = min(self.redundancy, len(ctx.replicas))
        if k == 0:
            return SelectionDecision(selected=())
        picked = ctx.rng.choice(len(ctx.replicas), size=k, replace=False)
        return SelectionDecision(
            selected=tuple(ctx.replicas[int(i)] for i in sorted(picked))
        )


class RoundRobinPolicy(SelectionPolicy):
    """Deterministic rotation over the replica list (classic LB baseline)."""

    name = "round-robin"

    def __init__(self, redundancy: int = 1) -> None:
        if redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {redundancy}")
        self.redundancy = int(redundancy)
        self._next = 0
        self.name = f"round-robin-{self.redundancy}"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        replicas = sorted(ctx.replicas)
        if not replicas:
            return SelectionDecision(selected=())
        k = min(self.redundancy, len(replicas))
        start = self._next % len(replicas)
        self._next += k
        picked = [replicas[(start + i) % len(replicas)] for i in range(k)]
        return SelectionDecision(selected=tuple(picked))


class LowestMeanPolicy(_RankedPrefixPolicy):
    """Best historical average response time (Sayal et al. style).

    Ranks replicas by the *mean* of the modeled response time instead of
    the deadline-conditional probability — the key difference from the
    paper's policy, and the reason it under-hedges near the deadline.
    """

    name = "lowest-mean"

    def score(self, ctx: SelectionContext, replica: str) -> float:
        mean = ctx.estimator.expected_response_time(replica)
        return mean if mean is not None else float("inf")


class NearestPolicy(_RankedPrefixPolicy):
    """Smallest static distance metric (Heidemann-style nearest server).

    On the paper's testbed, one LAN segment, every replica is equally
    near, so every score is 0 and "nearest" is name order.  A topology
    where distance means something (a tree, as in Rehn-Sonigo's Closest
    policy) is not modelled.
    """

    name = "nearest"

    def score(self, ctx: SelectionContext, replica: str) -> float:
        return 0.0


class ProbeEstimatePolicy(_RankedPrefixPolicy):
    """Load + delay point estimate (Fei et al. style).

    Estimates each replica's next response time as

        T_i + (queue_length + 1) · mean(S_i)

    — the freshest gateway delay plus the work currently queued — and
    picks the smallest.  A *point* estimate: unlike the paper's model it
    ignores the response-time distribution's shape, so it cannot reason
    about the probability of meeting a specific deadline.
    """

    name = "probe-estimate"

    def score(self, ctx: SelectionContext, replica: str) -> float:
        record = ctx.estimator.repository.record(replica)
        if not record.has_history:
            return float("inf")
        service_values = record.service_times.values()
        mean_service = sum(service_values) / len(service_values)
        assert record.gateway_delay_ms is not None
        return record.gateway_delay_ms + (record.queue_length + 1) * mean_service


class BestSinglePolicy(SelectionPolicy):
    """Rank replicas by F(t) and send to the best one.

    The related work's single-replica routing (§1): with
    ``EngineConfig.retry`` on, the engine retransmits a silent request
    to the next replica of ``meta["ranking"]``.
    """

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
