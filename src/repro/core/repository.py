"""The gateway information repository (paper §5.2).

One repository lives inside each client's timing fault handler and caches,
for every replica of the handler's service:

* the current number of outstanding requests in the replica's queue,
* the most recently measured two-way gateway-to-gateway delay ``T_i``,
* a *service time vector* — the service times of the most recent ``l``
  requests (a sliding window), and
* a *queuing delay vector* — the queuing delays over the same window.

The repository is deliberately local (no remote calls, no concurrency
control) — the paper lists exactly these advantages over a global
information service.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional

from .distribution import DiscretePMF, SampleCounts

__all__ = ["SlidingWindow", "ReplicaRecord", "InformationRepository"]


def _measurement(value: float) -> float:
    """``value`` as a float, refused unless finite and non-negative."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"measurements must be finite, got {value}")
    if value < 0:
        raise ValueError(f"measurements must be >= 0, got {value}")
    return value


class SlidingWindow:
    """Fixed-capacity window over the most recent measurements.

    Besides the raw values, the window maintains — from the first
    :meth:`pmf` on — :class:`SampleCounts` updated in place, so that a
    push/evict costs O(1) and :meth:`pmf` builds the window's empirical
    pmf without an O(l) recount; the counts keep that pmf until one of
    them changes, so a push that evicts a sample of its own bin costs no
    rebuild.  A push is refused (``ValueError``) before anything changes
    unless the value is finite and non-negative.  The monotone
    :attr:`version` (bumped on every push) tells a reader whether the
    window moved, even by a push that evicts an equal sample.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = int(size)
        self._values: Deque[float] = deque(maxlen=self.size)
        self.version = 0
        # Counts of the window, updated on every push once asked for.
        self._counter: Optional[SampleCounts] = None

    def append(self, value: float) -> None:
        """Push one measurement, evicting the oldest if full."""
        self._push(_measurement(value))

    def _push(self, value: float) -> None:
        """Push a measurement already checked by :func:`_measurement`."""
        evicted = self._values[0] if len(self._values) == self.size else None
        self._values.append(value)
        self.version += 1
        if self._counter is not None:
            self._counter.replace(value, evicted)

    def values(self) -> List[float]:
        """Current window contents, oldest first (copy)."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def counts(self) -> Dict[float, int]:
        """Bin counts of the current contents on the lattice."""
        return self._counts().counts()

    def pmf(self) -> DiscretePMF:
        """Empirical pmf of the window on the lattice.

        Built from the maintained counts, not from the raw samples.
        Raises ``ValueError`` while the window is empty.
        """
        return self._counts().pmf()

    def _counts(self) -> SampleCounts:
        if self._counter is None:
            self._counter = SampleCounts(self._values)
        return self._counter

    def __repr__(self) -> str:
        return f"<SlidingWindow {len(self._values)}/{self.size}>"


class ReplicaRecord:
    """Everything the repository knows about one replica.

    ``gateway_window_size`` enables the paper's §5.3.1 extension: instead
    of keeping only the most recent two-way gateway delay, a sliding
    window of recent values is retained so the estimator can treat ``T_i``
    as a distribution — useful on LANs whose traffic *does* fluctuate.
    """

    def __init__(
        self,
        name: str,
        window_size: int,
        gateway_window_size: Optional[int] = None,
        on_mutate: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.name = name
        self.service_times = SlidingWindow(window_size)
        self.queue_delays = SlidingWindow(window_size)
        self.gateway_delay_ms: Optional[float] = None
        self.gateway_delays: Optional[SlidingWindow] = (
            SlidingWindow(gateway_window_size)
            if gateway_window_size is not None
            else None
        )
        self._queue_length = 0
        self.last_update_ms: Optional[float] = None
        # Owner notification, called with this record's name (the
        # repository's version bump and change-log entry): lets consumers
        # see *any* record mutation — including direct
        # ``record.queue_length = n`` writes from probe replies.
        self._on_mutate = on_mutate

    @property
    def queue_length(self) -> int:
        """Outstanding requests in the replica's queue (live value)."""
        return self._queue_length

    @queue_length.setter
    def queue_length(self, value: int) -> None:
        self._queue_length = int(value)
        if self._on_mutate is not None:
            self._on_mutate(self.name)

    @property
    def has_history(self) -> bool:
        """Whether enough data exists to build a response-time model.

        One sample in each window plus a measured gateway delay suffices —
        the model just gets sharper as the windows fill.
        """
        return (
            len(self.service_times) > 0
            and len(self.queue_delays) > 0
            and self.gateway_delay_ms is not None
        )

    def record_performance(
        self,
        service_time_ms: float,
        queue_delay_ms: float,
        queue_length: int,
        now_ms: float,
    ) -> None:
        """Fold in a performance update pushed by the replica.

        Every input is checked before the first write, so a refused update
        leaves the record as it was; the owner is notified once.
        """
        if queue_length < 0:
            raise ValueError(f"queue_length must be >= 0, got {queue_length}")
        service_time_ms = _measurement(service_time_ms)
        queue_delay_ms = _measurement(queue_delay_ms)
        queue_length, now_ms = int(queue_length), float(now_ms)
        self.service_times._push(service_time_ms)
        self.queue_delays._push(queue_delay_ms)
        self._queue_length = queue_length
        self.last_update_ms = now_ms
        if self._on_mutate is not None:
            self._on_mutate(self.name)

    def record_gateway_delay(self, delay_ms: float, now_ms: float) -> None:
        """Store a freshly measured two-way gateway-to-gateway delay."""
        if -math.inf < delay_ms <= 0:
            # Clock arithmetic (t4 − t1 − tq − ts) can go slightly negative
            # when stage timestamps straddle a bin boundary; clamp (a
            # finite delay only, and -0.0 to 0.0).
            delay_ms = 0.0
        # (A non-finite delay is refused before anything changes.)
        delay_ms, now_ms = _measurement(delay_ms), float(now_ms)
        self.gateway_delay_ms = delay_ms
        if self.gateway_delays is not None:
            self.gateway_delays._push(delay_ms)
        self.last_update_ms = now_ms
        if self._on_mutate is not None:
            self._on_mutate(self.name)

    def staleness(self, now_ms: float) -> float:
        """Milliseconds since the last update (``inf`` if never updated).

        Drives the active-probing extension: records whose staleness
        exceeds a threshold get refreshed out of band.
        """
        if self.last_update_ms is None:
            return float("inf")
        return max(0.0, float(now_ms) - self.last_update_ms)

    def __repr__(self) -> str:
        return (
            f"<ReplicaRecord {self.name!r} qlen={self.queue_length} "
            f"T={self.gateway_delay_ms} history={self.has_history}>"
        )


class InformationRepository:
    """Per-handler cache of replica performance data.

    Parameters
    ----------
    window_size:
        The paper's ``l`` — the number of recent requests whose service
        time and queuing delay are retained per replica.
    """

    def __init__(
        self,
        window_size: int = 5,
        gateway_window_size: Optional[int] = None,
    ) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if gateway_window_size is not None and gateway_window_size < 1:
            raise ValueError(
                f"gateway_window_size must be >= 1, got {gateway_window_size}"
            )
        self.window_size = int(window_size)
        self.gateway_window_size = gateway_window_size
        self._records: Dict[str, ReplicaRecord] = {}
        self._version = 0
        # The change log: replica -> version of its newest mutation,
        # most-recent-last.  One entry per tracked replica at most.
        self._changes: Dict[str, int] = {}
        self._membership_version = 0

    @property
    def version(self) -> int:
        """Monotone counter over *every* mutation of any tracked record.

        Membership changes and record updates (windows, gateway delays,
        live queue depths) all bump it, so one integer comparison tells a
        batch consumer whether anything it derived from this repository
        could have changed; :meth:`changed_since` then tells it *what*.
        """
        return self._version

    def changed_since(self, version: int) -> Optional[List[str]]:
        """Replicas mutated after ``version``, most recent first.

        ``None`` means the membership itself changed after ``version``
        (a replica joined, left, or left and re-joined with a fresh
        record): everything derived per replica must be rebuilt.  A
        read-only query — any number of consumers, each holding the
        version it last synchronised at, can ask independently.
        """
        if self._membership_version > version:
            return None
        names: List[str] = []
        for name, changed_at in reversed(self._changes.items()):
            if changed_at <= version:
                break
            names.append(name)
        return names

    def changed_at(self, name: str) -> int:
        """Version of ``name``'s newest mutation (0: none since it joined)."""
        return self._changes.get(name, 0)

    def _record_mutated(self, name: str) -> None:
        if name not in self._records:
            return  # a write through a stale handle on an evicted record
        self._version += 1
        self._changes.pop(name, None)  # re-insert: most-recent-last
        self._changes[name] = self._version

    def _membership_changed(self, name: str) -> None:
        self._version += 1
        self._membership_version = self._version
        self._changes.pop(name, None)

    # -- membership ----------------------------------------------------------
    def add_replica(self, name: str) -> ReplicaRecord:
        """Start tracking a replica (idempotent; returns its record)."""
        record = self._records.get(name)
        if record is None:
            record = ReplicaRecord(
                name,
                self.window_size,
                self.gateway_window_size,
                on_mutate=self._record_mutated,
            )
            self._records[name] = record
            self._membership_changed(name)
        return record

    def remove_replica(self, name: str) -> None:
        """Forget a replica (idempotent) — e.g. on a crash notification."""
        if self._records.pop(name, None) is not None:
            self._membership_changed(name)

    def sync_members(self, members: Iterable[str]) -> None:
        """Reconcile tracked replicas with a new group view."""
        members = set(members)
        for name in list(self._records):
            if name not in members:
                self.remove_replica(name)
        for name in members:
            self.add_replica(name)

    # -- lookup ---------------------------------------------------------------
    def replicas(self) -> List[str]:
        """Names of all tracked replicas (sorted for determinism)."""
        return sorted(self._records)

    def record(self, name: str) -> ReplicaRecord:
        """The record for ``name`` (KeyError if untracked)."""
        try:
            return self._records[name]
        except KeyError:
            raise KeyError(f"replica {name!r} is not tracked") from None

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- updates (called by the handler) --------------------------------------
    def record_performance(
        self,
        name: str,
        service_time_ms: float,
        queue_delay_ms: float,
        queue_length: int,
        now_ms: float,
    ) -> None:
        """Fold a pushed performance update into ``name``'s record."""
        self.add_replica(name).record_performance(
            service_time_ms, queue_delay_ms, queue_length, now_ms
        )

    def record_gateway_delay(self, name: str, delay_ms: float, now_ms: float) -> None:
        """Store a measured two-way gateway delay for ``name``."""
        self.add_replica(name).record_gateway_delay(delay_ms, now_ms)

    def __repr__(self) -> str:
        return (
            f"<InformationRepository replicas={len(self._records)} "
            f"l={self.window_size}>"
        )
