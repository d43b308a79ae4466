"""Crash failure detection.

Maestro/Ensemble detects member crashes and announces membership changes.
Our analog is a heartbeat-style detector: every watched host has a *poll
chain* — one liveness sample every ``poll_interval_ms``, starting one
interval after the host was first watched — and a crash is declared after
:data:`CONFIRM_POLLS` consecutive "down" samples.  The product of the two is
the *detection latency* — the window during which the paper's selection
algorithm must survive on redundancy alone, which is exactly why
Algorithm 1 over-provisions by one replica.

The chain is materialized lazily.  A sample that finds a host up with no
suspicion on record changes nothing, and what a sample reads changes only
when the LAN is mutated, so the detector subscribes to
:meth:`LanModel.on_change` and holds a kernel timer for a host only while
the host looks down.  A host that stays up costs no kernel event; the
samples that do run fall on the very instants an always-on loop would
have used (see :meth:`FailureDetector._wake`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.lan import LanModel
from ..sim.kernel import Simulator

__all__ = ["CONFIRM_POLLS", "FailureDetector"]

#: Consecutive "down" samples before a crash is declared (guards against
#: transient unreachability).
CONFIRM_POLLS = 2

CrashListener = Callable[[str], None]


class _Chain:
    """Poll chain of one watched host.

    ``due`` is the next chain instant that has not been sampled; while
    the chain is dormant (``armed`` false) it may lie in the past and is
    fast-forwarded on the next wake.  ``begun`` (when it was watched) and
    ``serial`` (which watch it was) order the chains that share an instant
    (see :meth:`FailureDetector._fire`).  A host keeps its chain for the
    detector's lifetime: a re-watch reuses it.
    """

    __slots__ = ("host", "down_samples", "due", "armed", "begun", "serial")

    def __init__(self, host: str, begun: float, due: float, serial: int) -> None:
        self.host = host
        self.down_samples = 0
        self.due = due
        self.armed = False
        self.begun = begun
        self.serial = serial


class FailureDetector:
    """Samples host liveness on a fixed chain and reports confirmed crashes.

    Parameters
    ----------
    sim, lan:
        Kernel and topology.
    poll_interval_ms:
        Gap between liveness samples for each watched host.

    ``vantage`` is the host the detector observes *from*, assigned after
    construction (the chaos campaign sets it).  With a vantage set, a
    watched host severed from it (in either direction — probes out or
    replies back) samples as down, so partitions produce the same
    eviction path as crashes; ``None`` (the default) keeps the oracle
    behaviour: only ``lan.is_up`` matters.  ``confirm_polls`` starts at
    :data:`CONFIRM_POLLS`.

    Only samples that can change something are run: a host's timer exists
    from the LAN change that makes it look down until the first sample
    that sees it up again.  Tie rule: a LAN change that lands exactly on
    a chain instant is seen by that instant's sample.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        poll_interval_ms: float = 50.0,
    ) -> None:
        if poll_interval_ms <= 0:
            raise ValueError(f"poll_interval_ms must be > 0, got {poll_interval_ms}")
        self.sim = sim
        self.lan = lan
        self.poll_interval_ms = float(poll_interval_ms)
        self.confirm_polls = CONFIRM_POLLS
        self._vantage: Optional[str] = None
        self._listeners: List[CrashListener] = []
        self._chains: Dict[str, _Chain] = {}
        self._declared: Dict[str, float] = {}  # host -> time of declaration
        self._batches: Dict[float, List[_Chain]] = {}  # instant -> armed for it
        self._watch_count = 0
        self._polls_fired = 0
        lan.on_change(self._on_lan_change)

    @property
    def vantage(self) -> Optional[str]:
        """Host the detector observes from (``None``: liveness only)."""
        return self._vantage

    @vantage.setter
    def vantage(self, host_name: Optional[str]) -> None:
        self._vantage = host_name
        self._on_lan_change(tuple(self._chains))

    @property
    def polls_fired(self) -> int:
        """Liveness samples taken so far, over all watched hosts."""
        return self._polls_fired

    # -- wiring --------------------------------------------------------------
    def watch(self, host_name: str) -> None:
        """Start monitoring ``host_name`` (idempotent)."""
        self.lan.host(host_name)  # validate
        chain = self._chains.get(host_name)
        if chain is not None:
            # A re-watch (member rejoin) is a fresh sighting: suspicion
            # accumulated before a partition cut must not carry across
            # it, or the next blip confirms a "crash" in fewer polls
            # than the detector promises.
            chain.down_samples = 0
            return
        now = self.sim.now
        self._watch_count += 1
        chain = self._chains[host_name] = _Chain(
            host_name, now, now + self.poll_interval_ms, self._watch_count
        )
        self._wake(chain)

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

    def sight(self, host_name: str) -> None:
        """Register a fresh sighting of ``host_name``.

        A heal after a partition (or any other positive liveness
        evidence from outside the poll chain) clears both the crash
        declaration and the consecutive-down count: suspicion gathered
        before the cut must not survive it.
        """
        self._declared.pop(host_name, None)
        chain = self._chains.get(host_name)
        if chain is not None:
            chain.down_samples = 0

    def _observes_up(self, host_name: str) -> bool:
        """One liveness sample: up, and reachable from the vantage point
        in both directions (a one-way cut kills either the probe or its
        answer — the detector cannot tell which, only that it saw
        nothing)."""
        if not self.lan.is_up(host_name):
            return False
        if self._vantage is None or self._vantage == host_name:
            return True
        return self.lan.reachable(
            self._vantage, host_name
        ) and self.lan.reachable(host_name, self._vantage)

    # -- engine ------------------------------------------------------------
    def _on_lan_change(self, hosts: Tuple[str, ...]) -> None:
        # What a sample of h reads is h's up flag and its links to and
        # from the vantage; every change to either names h.
        for host_name in hosts:
            chain = self._chains.get(host_name)
            if chain is not None:
                self._wake(chain)

    def _wake(self, chain: _Chain) -> None:
        """Arm the chain's next instant unless its sample would be a no-op.

        A sample that sees the host up clears the down count and the
        declaration; with neither on record it changes nothing.  A
        dormant chain has a zero count (only samples raise it), so it
        may sleep while the host looks up and is not declared.  The
        chain resumes on the first instant ``>= now``, reached by the
        same ``+= poll_interval_ms`` accumulation that re-arming performs
        — declaration stamps are chain instants and feed pinned digests,
        so the float must be the one the always-on loop reaches.  The
        timer is pushed now, hence runs after the change that caused it,
        even when the two share an instant.
        """
        if chain.armed or (
            chain.host not in self._declared and self._observes_up(chain.host)
        ):
            return
        due, now, interval = chain.due, self.sim.now, self.poll_interval_ms
        while due < now:
            due += interval
        chain.due = due
        self._arm(chain)

    def _arm(self, chain: _Chain) -> None:
        # One kernel timer per instant, shared by every chain due then,
        # so that hosts declared at one instant are declared in a fixed
        # order (see _fire) whichever of them went dark first.
        chain.armed = True
        due = chain.due
        batch = self._batches.get(due)
        if batch is None:
            batch = self._batches[due] = []
            self.sim.call_at_exact(due, lambda: self._fire(due), daemon=True)
        batch.append(chain)

    def _fire(self, due: float) -> None:
        # Sample in the order an always-on loop's timers for ``due`` would
        # leave the kernel queue, i.e. the order they were pushed in: each
        # by the sample at its chain's previous instant, so by that
        # instant, then by the order of the samples there, and so on back
        # to the watches (a watch runs ahead of its instant's polls; two at
        # one instant in call order).  Chains that share ``due`` need not
        # share the instant before: 10.0 and 10.000000000000002 both step
        # to 20.0.  The walk is skipped when all chains began together.
        batch = self._batches.pop(due)
        mixed = len({chain.begun for chain in batch}) > 1

        def pushed(chain: _Chain) -> Tuple[List[float], int]:
            instants = [chain.begun]
            while mixed and instants[-1] < due:
                instants.append(instants[-1] + self.poll_interval_ms)
            return instants[-2::-1], chain.serial

        for chain in sorted(batch, key=pushed):
            self._poll(chain)

    def _poll(self, chain: _Chain) -> None:
        host_name = chain.host
        self._polls_fired += 1
        chain.armed = False
        chain.due = self.sim.now + self.poll_interval_ms
        if self._observes_up(host_name):
            chain.down_samples = 0
            # Recovered without an explicit sight(); treat as rejoin.
            self._declared.pop(host_name, None)
            return  # dormant until the next LAN change
        chain.down_samples += 1
        if (
            chain.down_samples >= self.confirm_polls
            and host_name not in self._declared
        ):
            self._declared[host_name] = self.sim.now
            for listener in list(self._listeners):
                listener(host_name)
        # Still down: keep the chain going, unless a LAN change a listener
        # made has re-armed the chain already.
        if not chain.armed:
            self._arm(chain)

    def __repr__(self) -> str:
        return (
            f"<FailureDetector watched={len(self._chains)} "
            f"declared={len(self._declared)}>"
        )
