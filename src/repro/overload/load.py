"""The load tracker: a per-replica and system-wide load index.

Every reply already carries the replying replica's queue length and the
queuing delay ``tq`` the request experienced (paper §5.4.1); the client
gateway additionally knows how many request copies it has in flight.
:class:`LoadTracker` folds those three signals — without any new wire
traffic — into one dimensionless load index:

* per replica, an EWMA of the *implied queue depth*: the larger of the
  reported queue length and ``tq / ts`` (how many service times the
  request waited), normalized by :data:`TARGET_QUEUE_DEPTH`;
* system-wide, the mean per-replica index over the *active* (non-
  quarantined) replicas plus the gateway's own in-flight copies divided
  by the active capacity.

An index of 0 means idle (no queueing observed anywhere, nothing in
flight); 1 means every active replica sits at the target depth.  The index is the single input of the redundancy governor's cap
ladder and the admission controller's engage thresholds — see
docs/ARCHITECTURE.md §6.

Quarantine composes through the ``names`` argument of
:meth:`system_load`: callers pass the active replica set, so a shrinking
set concentrates the same in-flight work over less capacity and the
index *rises* — the governor tightens rather than re-amplifies.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

__all__ = ["LoadTracker"]

#: Per-replica outstanding-request depth read as saturated: the
#: per-replica index is the EWMA'd implied depth divided by this.
TARGET_QUEUE_DEPTH = 3.0
#: Weight of the newest implied-depth sample in the EWMA.
EWMA_ALPHA = 0.4


class LoadTracker:
    """Folds reply-borne queue evidence into a load index.

    The tracker is passive like the health monitor: the handler feeds it
    observations and it never schedules events or reads a clock.
    ``inflight_provider`` (set by the owning handler) reports the number
    of request copies currently awaiting a reply, so the index reflects
    work this gateway has committed but the replicas have not yet
    acknowledged through a queue-length report.
    """

    def __init__(
        self, inflight_provider: Optional[Callable[[], int]] = None
    ) -> None:
        self.inflight_provider = inflight_provider
        # replica -> EWMA of the implied queue depth.
        self._depth_ewma: Dict[str, float] = {}
        self.observations = 0

    # -- feeding -------------------------------------------------------------
    def observe_reply(
        self,
        replica: str,
        queue_length: int,
        queue_delay_ms: float = 0.0,
        service_time_ms: float = 0.0,
    ) -> None:
        """Fold one performance update (reply or push) into the index.

        The implied depth is the larger of the reported queue length and
        ``tq / ts`` — a long wait behind few-but-slow requests is load
        too.  ``service_time_ms`` of 0 (unknown) uses the queue length
        alone.
        """
        implied = float(queue_length)
        if service_time_ms > 0.0 and queue_delay_ms > 0.0:
            implied = max(implied, queue_delay_ms / service_time_ms)
        self._fold(replica, implied)

    def observe_probe(self, replica: str, queue_length: int) -> None:
        """Fold a gateway probe's sampled queue depth into the index."""
        self._fold(replica, float(queue_length))

    def _fold(self, replica: str, implied_depth: float) -> None:
        if implied_depth < 0:
            raise ValueError(
                f"implied depth must be >= 0, got {implied_depth}"
            )
        alpha = EWMA_ALPHA
        previous = self._depth_ewma.get(replica)
        if previous is None:
            self._depth_ewma[replica] = implied_depth
        else:
            self._depth_ewma[replica] = (
                alpha * implied_depth + (1.0 - alpha) * previous
            )
        self.observations += 1

    def sync_members(self, members: Iterable[str]) -> None:
        """Drop state for departed replicas (a rejoin starts fresh)."""
        members = set(members)
        for name in list(self._depth_ewma):
            if name not in members:
                del self._depth_ewma[name]

    # -- the index -----------------------------------------------------------
    def replica_load(self, replica: str) -> float:
        """Per-replica load: EWMA'd depth over the target (0 if unseen)."""
        depth = self._depth_ewma.get(replica)
        if depth is None:
            return 0.0
        return depth / TARGET_QUEUE_DEPTH

    def awaiting_replies(self) -> int:
        """Request copies the gateway is currently awaiting replies for."""
        if self.inflight_provider is None:
            return 0
        return max(0, int(self.inflight_provider()))

    def system_load(self, names: Optional[Sequence[str]] = None) -> float:
        """The system-wide load index over the active replica set.

        ``names`` defaults to every replica ever observed.  Replicas
        without observations count as idle (load 0) — a cold start must
        read as idle so the governor and admission controller stay inert
        until evidence of pressure exists.
        """
        pool: List[str] = (
            list(names) if names is not None else sorted(self._depth_ewma)
        )
        if not pool:
            return 0.0
        queue_component = sum(self.replica_load(name) for name in pool) / len(
            pool
        )
        capacity = len(pool) * TARGET_QUEUE_DEPTH
        return queue_component + self.awaiting_replies() / capacity

    def __repr__(self) -> str:
        return (
            f"<LoadTracker replicas={len(self._depth_ewma)} "
            f"observations={self.observations}>"
        )
