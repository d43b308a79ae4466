"""Host-level fault drivers: crash-mid-service + restart, and view churn.

Message-level faults live in :class:`~repro.faultinject.transport
.FaultyTransport`; this module applies the two fault families that touch
hosts and membership instead of messages:

* :class:`CrashRestartFault` — fail-stop: the host drops off the LAN
  (in-flight deliveries to it are lost) and, at the same instant, every
  replica on it has its queue cleared and its service loop interrupted
  (crash-mid-service); the failure detector eventually evicts it from
  its groups.  If a restart is scheduled the host comes back as a fresh
  incarnation, the detector's declaration is cleared and each replica
  rejoins its group.  This is how the paper's §5.3.2 guarantee (the
  selected set still meets ``Pc(t)`` after one member crashes) is
  exercised.
* :class:`ChurnFault` — a graceful leave (the member stays up but
  vanishes from the view) followed by an optional rejoin, exercising the
  client handlers' view-tracking and repository eviction under traffic.
* :class:`DegradationFault` — the slow-factor half of a degradation
  window (the omission half is interpreted on the wire).

A host may run replicas of several services (paper §3); every fault
applies to all of them, each in its own service's group.

Both are idempotent against racing membership changes: a churned member
that was concurrently evicted by the failure detector is simply skipped.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..gateway.handlers.timing_fault import TimingFaultServerHandler
from ..group.ensemble import GroupCommunication
from ..net.lan import LanModel
from ..sim.kernel import Simulator
from ..sim.trace import NullTracer, Tracer
from .schedule import (
    ChurnFault,
    CrashRestartFault,
    DegradationFault,
    FaultSchedule,
)

__all__ = ["LifecycleFaultDriver"]


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


class LifecycleFaultDriver:
    """Applies crash/restart, churn and degradation to a running deployment.

    Parameters
    ----------
    sim, lan, group_comm:
        Simulation substrate the deployment runs on.
    replicas:
        Host name -> the server handlers running on it (the deployment's
        live book: replicas started later are seen when a fault fires).
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        group_comm: GroupCommunication,
        replicas: Mapping[str, Sequence[TimingFaultServerHandler]],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.group_comm = group_comm
        self.replicas = replicas
        self.tracer = tracer if tracer is not None else NullTracer()
        self.crashes_applied = 0
        self.restarts_applied = 0
        self.leaves_applied = 0
        self.rejoins_applied = 0
        self.degradations_applied = 0
        self.degradations_lifted = 0

    # -- scheduling ------------------------------------------------------------
    def apply(self, schedule: FaultSchedule) -> None:
        """Arm every host-level fault of ``schedule``."""
        for fault in schedule.crashes:
            self.apply_crash(fault)
        for fault in schedule.churn:
            self.apply_churn(fault)
        for fault in schedule.degradations:
            self.apply_degradation(fault)

    def apply_crash(self, fault: CrashRestartFault) -> None:
        """Arm one crash (and its optional restart)."""
        self.lan.host(fault.host)  # unknown hosts fail here, not mid-run
        self.sim.call_at(fault.crash_at_ms, lambda: self.crash_now(fault.host))
        if fault.restart_at_ms is not None:
            self.sim.call_at(
                fault.restart_at_ms, lambda: self.restart_now(fault.host)
            )

    def apply_churn(self, fault: ChurnFault) -> None:
        self.sim.call_at(fault.leave_at_ms, lambda: self.leave_now(fault.member))
        if fault.rejoin_at_ms is not None:
            self.sim.call_at(
                fault.rejoin_at_ms, lambda: self.rejoin_now(fault.member)
            )

    def apply_degradation(self, fault: DegradationFault) -> None:
        """Arm the slow-factor half of a degradation window.

        The omission half is interpreted on the wire by
        :class:`~repro.faultinject.transport.FaultyTransport` (the same
        schedule object must be handed to both).
        """
        if fault.host not in self.replicas:
            raise KeyError(f"no server handler for host {fault.host!r}")
        if fault.slow_factor > 1.0:
            self.sim.call_at(
                fault.start_ms, lambda: self.degrade_now(fault)
            )
            self.sim.call_at(fault.end_ms, lambda: self.recover_now(fault))

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
        self.tracer.emit(self.sim.now, "faultinject", "fault.crash", host=host)

    def restart_now(self, host: str) -> None:
        """Bring ``host`` back as a fresh incarnation (idempotent)."""
        if self.lan.is_up(host):
            return
        self.lan.mark_up(host)
        for handler in self.replicas.get(host, ()):
            handler.restart()
            self.group_comm.failure_detector.forget(host)
            if host not in self.group_comm.view(handler.service):
                self.group_comm.join(handler.service, host, watch=True)
        self.restarts_applied += 1
        self.tracer.emit(self.sim.now, "faultinject", "fault.restart", host=host)

    # -- degradation -----------------------------------------------------------
    def degrade_now(self, fault: DegradationFault) -> None:
        """Wrap the service profile of every replica on the host."""
        for handler in self.replicas[fault.host]:
            handler.app.profile = _SlowedProfile(
                handler.app.profile, fault.slow_factor
            )
        self.degradations_applied += 1
        self.tracer.emit(
            self.sim.now, "faultinject", "fault.degrade",
            host=fault.host, slow_factor=fault.slow_factor,
        )

    def recover_now(self, fault: DegradationFault) -> None:
        """Unwrap one layer of slowdown (overlapping windows nest)."""
        lifted = False
        for handler in self.replicas[fault.host]:
            if isinstance(handler.app.profile, _SlowedProfile):
                handler.app.profile = handler.app.profile._inner
                lifted = True
        if lifted:
            self.degradations_lifted += 1
            self.tracer.emit(
                self.sim.now, "faultinject", "fault.degrade-end",
                host=fault.host,
            )

    # -- view churn ------------------------------------------------------------
    def leave_now(self, member: str) -> None:
        """Remove a live member from its views (skipped where already gone)."""
        for handler in self.replicas.get(member, ()):
            if member not in self.group_comm.view(handler.service):
                continue
            self.group_comm.leave(handler.service, member)
            self.leaves_applied += 1
            self.tracer.emit(
                self.sim.now, "faultinject", "fault.leave", member=member
            )

    def rejoin_now(self, member: str) -> None:
        """Rejoin a previously churned member (skipped if down/present)."""
        if not self.lan.is_up(member):
            return  # crashed in the meantime; the restart path rejoins it
        for handler in self.replicas.get(member, ()):
            if member in self.group_comm.view(handler.service):
                continue
            self.group_comm.join(handler.service, member, watch=True)
            self.rejoins_applied += 1
            self.tracer.emit(
                self.sim.now, "faultinject", "fault.rejoin", member=member
            )

    def __repr__(self) -> str:
        return (
            f"<LifecycleFaultDriver crashes={self.crashes_applied} "
            f"restarts={self.restarts_applied} leaves={self.leaves_applied} "
            f"rejoins={self.rejoins_applied}>"
        )
