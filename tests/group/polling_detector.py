"""Reference failure detector: the always-on poll loop.

This is the detector the repository shipped before the lazy poll chain
(``repro.group.failure_detector``): every watched host re-arms a
``call_in(poll_interval_ms, ...)`` timer forever and samples the LAN at
every chain instant, whether or not anything changed.  It lives under
``tests/`` as the oracle the production detector is compared against,
instant for instant (``test_failure_detector_oracle.py``).

One deliberate difference from the historic code: a chain carries the
epoch of the ``watch`` that started it, so ``unwatch`` + ``watch`` inside
one poll interval retires the old chain instead of leaving two live ones
(the historic loop then sampled twice per interval; see
``test_rewatch_inside_one_interval_keeps_a_single_chain``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.lan import LanModel
from repro.sim.kernel import Simulator

__all__ = ["PollingFailureDetector"]

CrashListener = Callable[[str], None]


class PollingFailureDetector:
    """Periodically polls host liveness and reports confirmed crashes.

    Parameters
    ----------
    sim, lan:
        Kernel and topology.
    poll_interval_ms:
        Gap between liveness samples for each watched host.
    confirm_polls:
        Consecutive "down" samples required before declaring a crash
        (guards against transient unreachability).
    vantage:
        Optional host the detector observes *from*.  With a vantage set,
        a watched host severed from it (in either direction — probes out
        or replies back) samples as down, so partitions produce the same
        eviction path as crashes.  ``None`` (the default) keeps the
        legacy oracle behaviour: only ``lan.is_up`` matters.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        poll_interval_ms: float = 50.0,
        confirm_polls: int = 2,
        vantage: Optional[str] = None,
    ) -> None:
        if poll_interval_ms <= 0:
            raise ValueError(f"poll_interval_ms must be > 0, got {poll_interval_ms}")
        if confirm_polls < 1:
            raise ValueError(f"confirm_polls must be >= 1, got {confirm_polls}")
        self.sim = sim
        self.lan = lan
        self.poll_interval_ms = float(poll_interval_ms)
        self.confirm_polls = int(confirm_polls)
        self.vantage = vantage
        self._listeners: List[CrashListener] = []
        self._watched: Dict[str, int] = {}  # host -> consecutive down samples
        self._declared: Dict[str, float] = {}  # host -> time of declaration
        self._epoch: Dict[str, int] = {}  # host -> watches that began a chain

    @property
    def detection_latency_ms(self) -> float:
        """Worst-case time from crash to declaration."""
        return self.poll_interval_ms * (self.confirm_polls + 1)

    # -- wiring --------------------------------------------------------------
    def watch(self, host_name: str) -> None:
        """Start monitoring ``host_name`` (idempotent)."""
        self.lan.host(host_name)  # validate
        if host_name in self._watched:
            # A re-watch (member rejoin) is a fresh sighting: suspicion
            # accumulated before a partition cut must not carry across
            # it, or the next blip confirms a "crash" in fewer polls
            # than the detector promises.
            self._watched[host_name] = 0
            return
        self._watched[host_name] = 0
        epoch = self._epoch[host_name] = self._epoch.get(host_name, 0) + 1
        self.sim.call_in(
            self.poll_interval_ms, lambda: self._poll(host_name, epoch), daemon=True
        )

    def unwatch(self, host_name: str) -> None:
        """Stop monitoring ``host_name`` (idempotent)."""
        self._watched.pop(host_name, None)

    def on_crash(self, listener: CrashListener) -> Callable[[], None]:
        """Call ``listener(host_name)`` when a crash is confirmed.

        Returns an unsubscribe callable (idempotent), so short-lived
        subscribers — e.g. a client handler's health monitor — can detach
        without leaving a dangling reference in the detector.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    # -- inspection ------------------------------------------------------------
    def is_declared_crashed(self, host_name: str) -> bool:
        """Whether a crash has been declared for this host."""
        return host_name in self._declared

    def declared_crashes(self) -> Dict[str, float]:
        """Map of declared-crashed hosts to the declaration time."""
        return dict(self._declared)

    def consecutive_down(self, host_name: str) -> int:
        """Consecutive "down" samples on record for a watched host."""
        return self._watched[host_name]

    def forget(self, host_name: str) -> None:
        """Clear a crash declaration (call when the host recovers)."""
        self.sight(host_name)

    def sight(self, host_name: str) -> None:
        """Register a fresh sighting of ``host_name``.

        A heal after a partition (or any other positive liveness
        evidence from outside the poll loop) clears both the crash
        declaration and the consecutive-down count: suspicion gathered
        before the cut must not survive it.
        """
        self._declared.pop(host_name, None)
        if host_name in self._watched:
            self._watched[host_name] = 0

    def _observes_up(self, host_name: str) -> bool:
        """One liveness sample: up, and reachable from the vantage point
        in both directions (a one-way cut kills either the probe or its
        answer — the detector cannot tell which, only that it saw
        nothing)."""
        if not self.lan.is_up(host_name):
            return False
        if self.vantage is None or self.vantage == host_name:
            return True
        return self.lan.reachable(
            self.vantage, host_name
        ) and self.lan.reachable(host_name, self.vantage)

    # -- engine ------------------------------------------------------------
    def _poll(self, host_name: str, epoch: int) -> None:
        if host_name not in self._watched or self._epoch[host_name] != epoch:
            return  # unwatched in the meantime
        if self._observes_up(host_name):
            self._watched[host_name] = 0
            if host_name in self._declared:
                # Recovered without an explicit forget(); treat as rejoin.
                self._declared.pop(host_name)
        else:
            self._watched[host_name] += 1
            if (
                self._watched[host_name] >= self.confirm_polls
                and host_name not in self._declared
            ):
                self._declared[host_name] = self.sim.now
                for listener in list(self._listeners):
                    listener(host_name)
        self.sim.call_in(
            self.poll_interval_ms, lambda: self._poll(host_name, epoch), daemon=True
        )

    def __repr__(self) -> str:
        return (
            f"<PollingFailureDetector watched={len(self._watched)} "
            f"declared={len(self._declared)}>"
        )
