"""Reference failure detector: the always-on poll loop.

This is the detector the repository shipped before the lazy poll chain
(``repro.group.failure_detector``): every watched host re-arms a
``call_in(poll_interval_ms, ...)`` timer forever and samples the LAN at
every chain instant, whether or not anything changed.  It lives under
``tests/`` as the oracle the production detector is compared against,
instant for instant (``test_failure_detector_oracle.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.group.failure_detector import CONFIRM_POLLS
from repro.net.lan import LanModel
from repro.sim.kernel import Simulator

__all__ = ["PollingFailureDetector"]

CrashListener = Callable[[str], None]


class PollingFailureDetector:
    """Samples every watched host every ``poll_interval_ms``, for ever.

    Like the production detector, ``confirm_polls`` consecutive "down"
    samples declare a crash, and with ``vantage`` set a host severed from
    it in either direction samples as down; both are set after
    construction.
    """

    def __init__(self, sim: Simulator, lan: LanModel, poll_interval_ms: float) -> None:
        self.sim = sim
        self.lan = lan
        self.poll_interval_ms = float(poll_interval_ms)
        self.confirm_polls = CONFIRM_POLLS
        self.vantage: Optional[str] = None
        self._listeners: List[CrashListener] = []
        self._watched: Dict[str, int] = {}  # host -> consecutive down samples
        self._declared: Dict[str, float] = {}  # host -> time of declaration

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
        self.sim.call_in(
            self.poll_interval_ms, lambda: self._poll(host_name), daemon=True
        )

    def on_crash(self, listener: CrashListener) -> None:
        """Call ``listener(host_name)`` when a crash is confirmed."""
        self._listeners.append(listener)

    # -- inspection ------------------------------------------------------------
    def is_declared_crashed(self, host_name: str) -> bool:
        """Whether a crash has been declared for this host."""
        return host_name in self._declared

    def sight(self, host_name: str) -> None:
        """A fresh sighting: clears the declaration and the down count."""
        self._declared.pop(host_name, None)
        if host_name in self._watched:
            self._watched[host_name] = 0

    def _observes_up(self, host_name: str) -> bool:
        """One liveness sample: up, and reachable both ways from the vantage."""
        if not self.lan.is_up(host_name):
            return False
        if self.vantage is None or self.vantage == host_name:
            return True
        return self.lan.reachable(
            self.vantage, host_name
        ) and self.lan.reachable(host_name, self.vantage)

    # -- engine ------------------------------------------------------------
    def _poll(self, host_name: str) -> None:
        if self._observes_up(host_name):
            self._watched[host_name] = 0
            if host_name in self._declared:
                # Recovered without an explicit sight(); treat as rejoin.
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
            self.poll_interval_ms, lambda: self._poll(host_name), daemon=True
        )

    def __repr__(self) -> str:
        return (
            f"<PollingFailureDetector watched={len(self._watched)} "
            f"declared={len(self._declared)}>"
        )
