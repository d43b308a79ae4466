"""The fault plane: the one interpreter of a :class:`FaultSchedule`.

A deployment owns exactly one :class:`FaultPlane` (``stack.faults``) and
``apply(schedule)`` is the only call that injects anything: it hands the
schedule to the wire (the message-level rules, the omission half of a
degradation and the per-message side of every partition are interpreted
by :class:`~repro.faultinject.transport.FaultyTransport`) and to the
lifecycle auditor, then arms the six families that need timed
transitions:

* **crashes** — fail-stop: the host drops off the LAN and every replica
  on it is interrupted mid-service at the same instant; a restart brings
  it back as a fresh incarnation, clears the detector's declaration and
  rejoins each replica to its own service's group (paper §5.3.2 is
  exercised this way);
* **churn** — a graceful leave and optional rejoin of a live member;
* **degradations** — the slow-factor half: the host's service profiles
  are wrapped for the window (overlapping windows nest);
* **partitions** — total cuts are mirrored into the
  :class:`~repro.net.lan.LanModel` so copies already in flight die too
  and the failure detector's vantage host sees the dark side as down;
  every heal is a fresh sighting and rejoins replicas evicted meanwhile;
* **overloads** — open-loop surge traffic through the bound clients'
  own stubs, so the auditor books every surge request;
* **clocks** — skew/drift/step/freeze/jitter on a host's clock, resynced
  when the window ends.

The arm order is that list's order and is frozen: ``sim.call_at``
sequence numbers break same-instant ties, and the campaign digests sit
on them.  For the same reason ``apply`` belongs after the servers and
clients exist.  A fault naming a host (or surge client) the deployment
does not have, or a family the deployment cannot inject — wire-level
rules on the plain transport — raises ``ValueError`` before anything is
armed.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from ..gateway.handlers.timing_fault import TimingFaultServerHandler
from ..group.ensemble import GroupCommunication
from ..net.lan import LanModel
from ..orb.orb import Stub
from ..rng import RNGManager, derive_entity_seed
from ..sim.events import Event
from ..sim.hostclock import ClockRegistry, HostClock
from ..sim.kernel import Simulator
from .auditor import LifecycleAuditor
from .clock import ClockFault
from .partition import PartitionFault
from .schedule import DegradationFault, FaultSchedule, OverloadFault
from .transport import FaultyTransport

__all__ = ["FaultPlane"]

#: First argument of surge requests — a range apart from the regular
#: workloads' indices, so surge traffic is recognizable in reports.
SURGE_FIRST_ARG = 900_000

#: The hosts each timed family's faults name (overloads name clients).
_HOSTS_NAMED: Dict[str, Callable[[Any], Iterable[str]]] = {
    "crashes": lambda fault: (fault.host,),
    "churn": lambda fault: (fault.member,),
    "degradations": lambda fault: (fault.host,),
    "partitions": lambda fault: fault.side + fault.far,
    "clocks": lambda fault: (fault.host,),
}


def _wire_level(schedule: FaultSchedule) -> List[str]:
    """The families of ``schedule`` only a fault-injecting wire enforces."""
    families = [
        family for family in ("drops", "delays", "duplicates")
        if getattr(schedule, family)
    ]
    if any(fault.omission_probability > 0.0 for fault in schedule.degradations):
        families.append("degradations (omission)")
    if not all(fault.lan_visible for fault in schedule.partitions):
        families.append("partitions (grey or lossy)")
    return families


class _SlowedProfile:
    """A service profile proxy multiplying every sampled duration.

    Delegates everything else to the wrapped profile, so CoupledLoad
    coupling and per-method distributions keep working while degraded.
    """

    def __init__(self, inner: Any, slow_factor: float) -> None:
        self._inner = inner
        self._slow_factor = float(slow_factor)

    def sample_duration(
        self, method: str, now_ms: float, rng: np.random.Generator
    ) -> float:
        return float(
            self._slow_factor
            * self._inner.sample_duration(method, now_ms, rng)
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class FaultPlane:
    """Applies fault schedules to the deployment that built it.

    Everything is the deployment's own: ``replicas`` (host -> the server
    handlers running on it) and ``stubs`` (client host -> its stub) are
    its live books, so whatever is started or bound before a fault fires
    is seen; ``wire_seed`` roots the clock-jitter stream.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        group_comm: GroupCommunication,
        replicas: Mapping[str, Sequence[TimingFaultServerHandler]],
        clocks: ClockRegistry,
        stubs: Mapping[str, Stub],
        transport: Any,
        auditor: LifecycleAuditor,
        wire_seed: int,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.group_comm = group_comm
        self.replicas = replicas
        self.clocks = clocks
        self.stubs = stubs
        self.transport = transport
        self.auditor = auditor
        self._wire_seed = wire_seed
        #: Everything applied so far (what the wire and the auditor hold).
        self.schedule = FaultSchedule()
        self.crashes_applied = 0
        self.restarts_applied = 0
        self.leaves_applied = 0
        self.rejoins_applied = 0
        self.degradations_applied = 0
        self.degradations_lifted = 0
        self.cuts_applied = 0
        self.heals_applied = 0
        self.sightings_applied = 0
        self.heal_rejoins_applied = 0
        self.surges_applied = 0
        self.surge_requests = 0
        self.engagements = 0
        self.resyncs = 0
        #: Outcome events of every surge request (drain bookkeeping).
        self.surge_events: List[Event] = []
        self._next_surge_arg = SURGE_FIRST_ARG
        # Per partition, a stack of severed pair lists (flaps nest).
        self._severed: Dict[PartitionFault, List[List[Tuple[str, str]]]] = {}
        self._engaged: Dict[str, List[ClockFault]] = {}

    # -- the one entry point ---------------------------------------------------
    def apply(self, schedule: FaultSchedule) -> None:
        """Inject ``schedule``, on top of whatever was applied before."""
        self._check(schedule)
        self.schedule = self.schedule.merged(schedule)
        if isinstance(self.transport, FaultyTransport):
            self.transport.schedule = self.schedule
        self.auditor.set_schedule(self.schedule)
        at = self.sim.call_at
        for crash in schedule.crashes:
            at(crash.crash_at_ms, lambda f=crash: self.crash_now(f.host))
            if crash.restart_at_ms is not None:
                at(crash.restart_at_ms, lambda f=crash: self.restart_now(f.host))
        for churn in schedule.churn:
            at(churn.leave_at_ms, lambda f=churn: self.leave_now(f.member))
            if churn.rejoin_at_ms is not None:
                at(churn.rejoin_at_ms, lambda f=churn: self.rejoin_now(f.member))
        for slow in schedule.degradations:
            if slow.slow_factor > 1.0:
                at(slow.start_ms, lambda f=slow: self.degrade_now(f))
                at(slow.end_ms, lambda f=slow: self.recover_now(f))
        for cut in schedule.partitions:
            # Grey and lossy cuts stay wire-level; they never touch the LAN map.
            if cut.lan_visible:
                for cut_at, heal_at in cut.cut_intervals():
                    at(cut_at, lambda f=cut: self.cut_now(f))
                    at(heal_at, lambda f=cut: self.heal_now(f))
        for surge in schedule.overloads:
            at(surge.start_ms, lambda f=surge: self.surge_now(f))
        for clock in schedule.clocks:
            at(clock.start_ms, lambda f=clock: self.engage_now(f))
            at(clock.end_ms, lambda f=clock: self.disengage_now(f))

    def _check(self, schedule: FaultSchedule) -> None:
        """Reject what this deployment cannot inject, before arming any of it."""
        if not isinstance(self.transport, FaultyTransport):
            wire_level = _wire_level(schedule)
            if wire_level:
                raise ValueError(
                    f"{', '.join(wire_level)} need a fault-injecting wire, "
                    "and this deployment was built on the plain transport"
                )
        for family, hosts_named in _HOSTS_NAMED.items():
            for fault in getattr(schedule, family):
                for host in hosts_named(fault):
                    if not self.lan.has_host(host):
                        raise ValueError(
                            f"{family}: the deployment has no host {host!r} "
                            f"({fault!r})"
                        )
        for surge in schedule.overloads:
            if not (surge.clients or self.stubs):
                raise ValueError(f"overloads: no client is bound ({surge!r})")
            for client in surge.clients:
                if client not in self.stubs:
                    raise ValueError(
                        f"overloads: the deployment has no client {client!r} "
                        f"({surge!r})"
                    )

    # -- crash / restart -------------------------------------------------------
    def crash_now(self, host: str) -> None:
        """Fail-stop ``host`` at the current instant (idempotent).

        Queue draining stops at the same instant deliveries start being
        dropped.
        """
        if not self.lan.is_up(host):
            return
        self.lan.mark_down(host)
        for handler in self.replicas.get(host, ()):
            handler.crash()
        self.crashes_applied += 1

    def restart_now(self, host: str) -> None:
        """Bring ``host`` back as a fresh incarnation (idempotent)."""
        if self.lan.is_up(host):
            return
        self.lan.mark_up(host)
        for handler in self.replicas.get(host, ()):
            handler.restart()
            self.group_comm.failure_detector.sight(host)
            if host not in self.group_comm.view(handler.service):
                self.group_comm.join(handler.service, host, watch=True)
        self.restarts_applied += 1

    # -- view churn ------------------------------------------------------------
    def leave_now(self, member: str) -> None:
        """Remove a live member from its views (skipped where already gone)."""
        for handler in self.replicas.get(member, ()):
            if member not in self.group_comm.view(handler.service):
                continue
            self.group_comm.leave(handler.service, member)
            self.leaves_applied += 1

    def rejoin_now(self, member: str) -> None:
        """Rejoin a previously churned member (skipped if down/present)."""
        if not self.lan.is_up(member):
            return  # crashed in the meantime; the restart path rejoins it
        for handler in self.replicas.get(member, ()):
            if member in self.group_comm.view(handler.service):
                continue
            self.group_comm.join(handler.service, member, watch=True)
            self.rejoins_applied += 1

    # -- degradation -----------------------------------------------------------
    def degrade_now(self, fault: DegradationFault) -> None:
        """Wrap the service profile of every replica on the host."""
        for handler in self.replicas.get(fault.host, ()):
            handler.app.profile = _SlowedProfile(
                handler.app.profile, fault.slow_factor
            )
        self.degradations_applied += 1

    def recover_now(self, fault: DegradationFault) -> None:
        """Unwrap one layer of slowdown (overlapping windows nest)."""
        lifted = False
        for handler in self.replicas.get(fault.host, ()):
            if isinstance(handler.app.profile, _SlowedProfile):
                handler.app.profile = handler.app.profile._inner
                lifted = True
        if lifted:
            self.degradations_lifted += 1

    # -- partitions ------------------------------------------------------------
    def _pairs(self, fault: PartitionFault) -> List[Tuple[str, str]]:
        far = fault.far or tuple(
            h.name for h in self.lan.hosts() if h.name not in fault.side
        )
        pairs: List[Tuple[str, str]] = []
        for a in fault.side:
            for b in far:
                if fault.mode in ("symmetric", "outbound"):
                    pairs.append((a, b))
                if fault.mode in ("symmetric", "inbound"):
                    pairs.append((b, a))
        return pairs

    def cut_now(self, fault: PartitionFault) -> None:
        """Sever the fault's ordered pairs at the current instant."""
        pairs = self._pairs(fault)
        for src, dst in pairs:
            self.lan.sever_link(src, dst)
        self._severed.setdefault(fault, []).append(pairs)
        self.cuts_applied += 1

    def heal_now(self, fault: PartitionFault) -> None:
        """Heal the most recent cut of ``fault`` and reconcile membership."""
        stack = self._severed.get(fault)
        if not stack:
            return
        for src, dst in stack.pop():
            self.lan.heal_link(src, dst)
        if not stack:
            self._severed.pop(fault, None)
        self.heals_applied += 1
        self._reconcile(fault)

    def _reconcile(self, fault: PartitionFault) -> None:
        # A heal is a fresh sighting: clear cut-induced crash declarations
        # and rejoin replicas that were evicted while unreachable.  Hosts
        # still severed by an overlapping cut, or genuinely down (real
        # crash — the restart path owns those), are left alone.
        detector = self.group_comm.failure_detector
        for host in sorted(set(fault.side) | set(fault.far)):
            if not self.lan.is_up(host):
                continue
            if any(host in pair for pair in self.lan.severed_links()):
                continue
            if not detector.is_declared_crashed(host):
                continue
            detector.sight(host)
            self.sightings_applied += 1
            for handler in self.replicas.get(host, ()):
                if host in self.group_comm.view(handler.service):
                    continue
                self.group_comm.join(handler.service, host, watch=True)
                self.heal_rejoins_applied += 1

    # -- overload surges -------------------------------------------------------
    def surge_now(self, fault: OverloadFault) -> None:
        """Start the open-loop surge of every client ``fault`` names.

        Surge traffic enters through the clients' own stubs, so it is
        validated, audited and completed exactly like real traffic; a
        new request fires every ``surge_interarrival_ms`` regardless of
        outstanding ones — the arrival pattern that triggers the
        redundancy→load feedback loop the overload subsystem must break.
        """
        clients = fault.clients or tuple(sorted(self.stubs))
        self.surges_applied += 1
        for client in clients:
            self.sim.spawn(
                self._surge(fault, self.stubs[client]), name=f"overload.{client}"
            )

    def _surge(
        self, fault: OverloadFault, stub: Stub
    ) -> Generator[Event, Any, None]:
        # The paper's services have one method (§8); a surge fires the
        # interface's first.
        method = stub.interface.methods()[0].name
        while self.sim.now < fault.end_ms:
            self.surge_events.append(stub.invoke(method, self._next_surge_arg))
            self._next_surge_arg += 1
            self.surge_requests += 1
            yield self.sim.timeout(fault.surge_interarrival_ms)

    # -- clocks ----------------------------------------------------------------
    @cached_property
    def _jitter_streams(self) -> RNGManager:
        # The campaign's historic key: clocked campaign digests sit on it.
        return RNGManager(derive_entity_seed(self._wire_seed, "chaos.clock", 0, 0))

    def _engage(self, clock: HostClock, fault: ClockFault) -> None:
        if fault.kind == "skew":
            clock.step(fault.offset_ms)
        elif fault.kind == "drift":
            clock.set_rate(fault.rate)
        elif fault.kind == "step":
            clock.step(fault.step_ms)
        elif fault.kind == "freeze":
            clock.freeze()
        else:  # jitter
            clock.set_jitter(
                fault.jitter_ms,
                self._jitter_streams.stream(f"faultinject.clock.{fault.host}"),
            )

    def engage_now(self, fault: ClockFault) -> None:
        """Apply ``fault`` to its host's clock at the current instant."""
        active = self._engaged.setdefault(fault.host, [])
        if fault in active:
            return  # idempotent: already engaged
        active.append(fault)
        self._engage(self.clocks.clock(fault.host), fault)
        self.engagements += 1

    def disengage_now(self, fault: ClockFault) -> None:
        """End ``fault``'s window: resync, then re-engage survivors.

        Overlapping windows on one host compose approximately: a
        re-engaged ``step`` jumps again.  Randomized schedules draw at
        most a few windows per run, so in practice windows are disjoint
        and the semantics exact.
        """
        active = self._engaged.get(fault.host)
        if active is None or fault not in active:
            return
        active.remove(fault)
        clock = self.clocks.clock(fault.host)
        clock.resync()
        for survivor in active:
            self._engage(clock, survivor)
        if not active:
            self._engaged.pop(fault.host, None)
        self.resyncs += 1

    def __repr__(self) -> str:
        return (
            f"<FaultPlane faults={len(self.schedule)} "
            f"crashes={self.crashes_applied} cuts={self.cuts_applied} "
            f"surges={self.surges_applied} clock_windows={self.engagements}>"
        )
