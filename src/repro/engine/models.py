"""Per-class performance models: one repository and estimator per request class.

The paper's base design keeps one model per service (the default class,
always present).  With a classifier (§8 extension) history is kept per
class key — per method, or per argument shape.  The gateway delay ``T_i``
and probe results are properties of the network path, not of the request
class, so they are shared across classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.estimator import ResponseTimeEstimator
from ..core.repository import InformationRepository
from ..orb.object import MethodRequest
from .config import EngineConfig
from .types import DEFAULT_CLASS, PerformanceUpdate

__all__ = ["ClassModels"]


class ClassModels:
    """Repositories and estimators by request class, kept in step with the view."""

    def __init__(self, config: EngineConfig) -> None:
        """Create the default class; other classes appear on first use."""
        self.config = config
        self.members: List[str] = []
        self._repositories: Dict[str, InformationRepository] = {}
        self._estimators: Dict[str, ResponseTimeEstimator] = {}
        #: The default class's repository/estimator (the paper's base design).
        self.repository = self.repository_for(DEFAULT_CLASS)
        self.estimator = self._estimators[DEFAULT_CLASS]

    # -- per-class access ------------------------------------------------------
    def classify(self, request: Optional[MethodRequest]) -> str:
        """The class key whose history models ``request``."""
        classifier = self.config.classifier
        if classifier is None or request is None:
            return DEFAULT_CLASS
        return classifier(request)

    def classes(self) -> List[str]:
        """Class keys with performance state (always includes default)."""
        return sorted(self._repositories)

    def repository_for(self, class_key: str) -> InformationRepository:
        """The repository of ``class_key`` (created on first use)."""
        repo = self._repositories.get(class_key)
        if repo is None:
            repo = InformationRepository(
                window_size=self.config.window_size,
                gateway_window_size=self.config.gateway_window_size,
            )
            repo.sync_members(self.members)
            self._repositories[class_key] = repo
            self._estimators[class_key] = self.config.build_estimator(repo)
        return repo

    def estimator_for(self, class_key: str) -> ResponseTimeEstimator:
        """The estimator of ``class_key`` (created on first use)."""
        self.repository_for(class_key)
        return self._estimators[class_key]

    # -- membership ------------------------------------------------------------
    def sync(self, members: Sequence[str]) -> None:
        """Adopt a new view: add joiners, evict leavers.

        The estimators follow through the repositories' change logs: a
        re-joined replica has a fresh record and is never served the pmf
        of its evicted one.
        """
        self.members = list(members)
        for repo in self._repositories.values():
            repo.sync_members(self.members)

    # -- evidence --------------------------------------------------------------
    def record(self, perf: PerformanceUpdate, now_ms: float) -> bool:
        """File an admitted sample under its class; false if not tracked.

        An evicted replica is not tracked: a stale push must not
        resurrect it.
        """
        repo = self.repository  # the base design's one model: no lookup
        if self.config.classifier is not None:
            repo = self.repository_for(self.classify(perf.request))
        if perf.replica not in repo:
            return False
        repo.record_performance(
            perf.replica, perf.service_time_ms, perf.queue_delay_ms,
            perf.queue_length, now_ms,
        )
        return True

    def record_gateway_delay(
        self, class_key: str, replica: str, delay_ms: float, now_ms: float
    ) -> None:
        """File a ``T_i`` sample under ``class_key`` and the default class.

        The gateway delay is request-class independent (a property of the
        network path), so rarely-used classes still get a fresh ``T_i``.
        """
        shared = () if class_key == DEFAULT_CLASS else (DEFAULT_CLASS,)
        for key in (class_key, *shared):
            repo = self.repository_for(key)
            if replica in repo:
                repo.record_gateway_delay(replica, delay_ms, now_ms)

    def record_probe(
        self, replica: str, round_trip_ms: float, queue_length: int, now_ms: float
    ) -> None:
        """Fan a probe result out to every class that tracks ``replica``."""
        for repo in self._repositories.values():
            if replica in repo:
                repo.record_gateway_delay(replica, round_trip_ms, now_ms)
                repo.record(replica).queue_length = queue_length

    def stale(self, now_ms: float, threshold_ms: float) -> Set[str]:
        """Replicas whose record in any class is older than ``threshold_ms``."""
        return {
            name
            for repo in self._repositories.values()
            for name in repo.replicas()
            if repo.record(name).staleness(now_ms) > threshold_ms
        }

    # -- lifecycle invariants --------------------------------------------------
    def leaks(self, now_ms: float) -> Dict[str, List[str]]:
        """Replicas modelled against the view or stamped in the future.

        *Resurrection*: a repository holds a replica outside the current
        view.  *Future stamp* (docs/ARCHITECTURE.md §10): every record
        stamp comes from this gateway's own clock, so none can be newer
        than its current reading — a future stamp means a replica's
        absolute timestamp was admitted, the exact bug class the clock
        plane exists to catch.
        """
        members = set(self.members)
        tracked = [
            (repo, name)
            for repo in self._repositories.values()
            for name in repo.replicas()
        ]
        found = {
            "resurrected_replicas": {
                name for _repo, name in tracked if name not in members
            },
            "future_stamped_records": {
                name
                for repo, name in tracked
                if (repo.record(name).last_update_ms or 0.0) > now_ms + 1e-6
            },
        }
        return {key: sorted(names) for key, names in found.items() if names}
