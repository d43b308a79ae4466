"""Partition faults: declarative connectivity cuts.

The paper treats a timing fault as a *late* response, but the most
hostile timing fault a LAN can produce is a partition: delay that is
effectively infinite, often asymmetric (requests arrive, replies
vanish), and correlated across replicas.  :class:`PartitionFault`
describes one connectivity cut as pure data:

* **symmetric split-brain** — no traffic crosses the cut in either
  direction (``mode="symmetric"``);
* **one-way link loss** — only one direction is severed:
  ``mode="outbound"`` loses traffic *originating from* the dark side
  (requests arrive, replies vanish), ``mode="inbound"`` loses traffic
  *toward* it (the dark side keeps talking into the void);
* **flapping links** — ``flap_period_ms`` re-cuts and heals the link on
  a duty cycle inside the window, the regime that breeds stale
  suspicion in failure detectors;
* **grey failure** — ``exempt_kinds`` lets selected message kinds (in
  practice the health probes) through while data traffic is dropped, so
  the cut *passes probes but loses work*.

Enforcement is layered.  :class:`~repro.faultinject.transport
.FaultyTransport` interprets the rules message-by-message (including
grey and probabilistic cuts).  The :class:`~repro.faultinject.plane
.FaultPlane` additionally makes *total* cuts visible at the
:class:`~repro.net.lan.LanModel` layer — severing the ordered host pairs
so delayed/duplicated copies die on the wire too and the
:class:`~repro.group.failure_detector.FailureDetector`'s vantage host
observes the dark side as unreachable, which is what finally exercises
view churn under partial connectivity.  On every heal it reconciles:
cut-declared "crashes" are forgotten (a heal is a fresh sighting), and
evicted-but-alive replicas rejoin their service's group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..gateway.handlers.timing_fault import MSG_PROBE, MSG_PROBE_REPLY
from ..net.message import Message

__all__ = [
    "PROBE_EXEMPT_KINDS",
    "PartitionFault",
]

#: Message kinds a grey-failure cut lets through: the health-probe
#: round trip.  Everything else — requests, replies, perf pushes — dies.
PROBE_EXEMPT_KINDS: Tuple[str, ...] = (MSG_PROBE, MSG_PROBE_REPLY)

_MODES = ("symmetric", "outbound", "inbound")


@dataclass(frozen=True)
class PartitionFault:
    """One connectivity cut between two host sets over a time window.

    Attributes
    ----------
    side:
        The cut-off ("dark") host set.
    start_ms / end_ms:
        The cut's window; the link is healed at ``end_ms``.
    far:
        Explicit far side of the cut; empty means *every other host* —
        the common case of a replica subset isolated from the world.
    mode:
        ``"symmetric"`` severs both directions; ``"outbound"`` loses
        messages sent *by* ``side``; ``"inbound"`` loses messages sent
        *to* it.
    drop_probability:
        Probability a crossing message dies (1.0 = full cut; lower
        values model a lossy brownout and stay wire-level only).
    flap_period_ms / flap_duty:
        If set, the cut is only active for the first ``flap_duty``
        fraction of every ``flap_period_ms`` cycle inside the window —
        a link that heals and re-partitions repeatedly.
    exempt_kinds:
        Message kinds that always pass (grey failure; see
        :data:`PROBE_EXEMPT_KINDS`).
    """

    side: Tuple[str, ...]
    start_ms: float
    end_ms: float
    far: Tuple[str, ...] = ()
    mode: str = "symmetric"
    drop_probability: float = 1.0
    flap_period_ms: Optional[float] = None
    flap_duty: float = 0.5
    exempt_kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.side:
            raise ValueError("a partition needs at least one dark-side host")
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"end_ms must exceed start_ms, got [{self.start_ms}, {self.end_ms}]"
            )
        if set(self.side) & set(self.far):
            raise ValueError("side and far must be disjoint host sets")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not 0.0 < self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in (0, 1], got {self.drop_probability}"
            )
        if self.flap_period_ms is not None and self.flap_period_ms <= 0:
            raise ValueError(
                f"flap_period_ms must be > 0, got {self.flap_period_ms}"
            )
        if not 0.0 < self.flap_duty <= 1.0:
            raise ValueError(
                f"flap_duty must be in (0, 1], got {self.flap_duty}"
            )

    # -- activity -----------------------------------------------------------
    def active(self, now_ms: float) -> bool:
        """Whether the cut is live at ``now_ms`` (flap phase included)."""
        if not self.start_ms <= now_ms < self.end_ms:
            return False
        if self.flap_period_ms is None:
            return True
        phase = (now_ms - self.start_ms) % self.flap_period_ms
        return phase < self.flap_period_ms * self.flap_duty

    def cut_intervals(self) -> List[Tuple[float, float]]:
        """The ``[cut_at, heal_at)`` sub-intervals the window decomposes into.

        One interval for a steady cut; one per duty cycle for a flapping
        link.  Every interval ends by ``end_ms`` — a schedule never
        leaves a link severed after its window.
        """
        if self.flap_period_ms is None:
            return [(self.start_ms, self.end_ms)]
        intervals: List[Tuple[float, float]] = []
        t = self.start_ms
        while t < self.end_ms:
            heal_at = min(t + self.flap_period_ms * self.flap_duty, self.end_ms)
            if heal_at > t:
                intervals.append((t, heal_at))
            t += self.flap_period_ms
        return intervals

    # -- message matching ---------------------------------------------------
    def _crossing(self, sender: str, destination: str) -> Optional[str]:
        """``"out"``/``"in"`` if the ordered pair crosses the cut, else None."""
        sender_dark = sender in self.side
        destination_dark = destination in self.side
        if self.far:
            if sender_dark and destination in self.far:
                return "out"
            if destination_dark and sender in self.far:
                return "in"
            return None
        if sender_dark and not destination_dark:
            return "out"
        if destination_dark and not sender_dark:
            return "in"
        return None

    def separates(self, a: str, b: str) -> bool:
        """Whether a request/reply round trip between ``a`` and ``b`` is
        impossible while the cut is active (any crossing direction severed
        kills one leg of the round trip, whatever the mode)."""
        return self._crossing(a, b) is not None

    def severs(self, now_ms: float, message: Message) -> bool:
        """Whether ``message`` sent at ``now_ms`` dies on this cut.

        Deterministic part only; the transport applies
        ``drop_probability`` on top for lossy cuts.
        """
        if not self.active(now_ms):
            return False
        if message.kind in self.exempt_kinds:
            return False
        direction = self._crossing(message.sender, message.destination)
        if direction is None:
            return False
        if self.mode == "symmetric":
            return True
        return direction == ("out" if self.mode == "outbound" else "in")

    # -- classification ------------------------------------------------------
    @property
    def lan_visible(self) -> bool:
        """Whether the cut is total per direction — a full link severance
        the fault plane mirrors into the LAN's reachability map.  Grey
        (kind-exempting) and lossy cuts stay wire-level."""
        return self.drop_probability >= 1.0 and not self.exempt_kinds

    @property
    def blackout(self) -> bool:
        """A steady, total, exemption-free cut: while it is active no
        round trip across it can complete — the premise of the auditor's
        "no acks from the dark side" invariant."""
        return self.lan_visible and self.flap_period_ms is None
