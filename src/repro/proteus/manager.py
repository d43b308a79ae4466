"""Proteus-style dependability manager.

In AQuA, "the Proteus dependability manager manages the replication level
for different applications based on their dependability requirements"
(paper §2).  Here the manager deploys replicas of a service onto hosts
(building the per-host gateway, application and server handler, and
joining the service's group), wires crash/recovery hooks to a
:class:`~repro.replica.faults.FaultInjector`, and can optionally maintain
the replication level by starting replicas on spare hosts after members
are evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..gateway.gateway import Gateway
from ..gateway.handlers.timing_fault import TimingFaultServerHandler
from ..group.ensemble import GroupCommunication
from ..group.membership import GroupView
from ..metrics.collector import MetricsCollector
from ..net.lan import LanModel
from ..net.transport import Transport
from ..orb.iiop import MarshallingModel
from ..orb.object import Servant
from ..replica.faults import FaultInjector
from ..replica.load import HostActivity, ServiceProfile
from ..replica.server import ReplicaApplication
from ..rng import RNGManager
from ..sim.hostclock import ClockRegistry
from ..sim.kernel import Simulator
from ..sim.trace import NullTracer, Tracer

__all__ = ["ServiceSpec", "DependabilityManager"]


@dataclass
class ServiceSpec:
    """What the manager needs to know to deploy one replicated service.

    Attributes
    ----------
    service:
        Service (and group) name.
    servant_factory:
        Builds a fresh servant per replica.
    profile_factory:
        Builds the service-time profile for a replica, given its host name
        (lets scenarios give each host its own load).
    replication_level:
        Target number of live replicas.
    """

    service: str
    servant_factory: Callable[[], Servant]
    profile_factory: Callable[[str], ServiceProfile]
    replication_level: int = 1

    def __post_init__(self) -> None:
        if self.replication_level < 1:
            raise ValueError(
                f"replication_level must be >= 1, got {self.replication_level}"
            )


class DependabilityManager:
    """Deploys and maintains replicated services."""

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        transport: Transport,
        group_comm: GroupCommunication,
        streams: RNGManager,
        marshalling: Optional[MarshallingModel] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsCollector] = None,
        clocks: Optional[ClockRegistry] = None,
    ):
        self.sim = sim
        # Per-host virtual clocks; replicas started later (including
        # spares promoted by maintain_replication) stamp on the same
        # clock objects the clock-fault drivers manipulate.
        self.clocks = clocks if clocks is not None else ClockRegistry(sim)
        self.lan = lan
        self.transport = transport
        self.group_comm = group_comm
        self.streams = streams
        self.marshalling = marshalling or MarshallingModel()
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics or MetricsCollector(keep_samples=False)
        self._gateways: Dict[str, Gateway] = {}
        self._specs: Dict[str, ServiceSpec] = {}
        # (service, host) -> handler; a host may run replicas of several
        # services (paper §3: "a machine may host multiple replicas").
        self._handlers: Dict[tuple, TimingFaultServerHandler] = {}
        self._spares: Dict[str, List[str]] = {}
        self._injector: Optional[FaultInjector] = None
        # Shared co-location activity, consumed by CoupledLoad profiles.
        self.host_activity = HostActivity()
        self.replicas_started = 0
        # Health transitions reported by client handlers, as
        # (service, HealthEvent) in arrival order — AQuA's fault
        # notification path: gateways observe, Proteus aggregates.
        self.health_reports: List[tuple] = []

    # -- infrastructure ------------------------------------------------------
    def gateway_for(self, host: str) -> Gateway:
        """The gateway of ``host``, creating (and binding) it if needed."""
        gateway = self._gateways.get(host)
        if gateway is None:
            gateway = Gateway(host, self.sim, self.transport, tracer=self.tracer)
            self._gateways[host] = gateway
        return gateway

    def attach_injector(self, injector: FaultInjector) -> None:
        """Wire crash/recovery hooks for all current and future replicas."""
        self._injector = injector
        for key in self._handlers:
            self._wire_faults(key)

    # -- deployment ------------------------------------------------------------
    def deploy(self, spec: ServiceSpec, hosts: List[str]) -> List[str]:
        """Deploy ``spec`` onto the first ``replication_level`` hosts.

        Remaining hosts become spares for :meth:`maintain_replication`.
        Returns the hosts that now run replicas.
        """
        if len(hosts) < spec.replication_level:
            raise ValueError(
                f"need at least {spec.replication_level} hosts, got {len(hosts)}"
            )
        if spec.service in self._specs:
            raise ValueError(f"service {spec.service!r} already deployed")
        self._specs[spec.service] = spec
        active = hosts[: spec.replication_level]
        self._spares[spec.service] = list(hosts[spec.replication_level:])
        for host in active:
            self.start_replica(spec.service, host)
        return active

    def start_replica(self, service: str, host: str) -> TimingFaultServerHandler:
        """Start one replica of ``service`` on ``host`` and join its group.

        A host may run replicas of several *different* services (the
        gateway routes by service); two replicas of the *same* service on
        one host are rejected — they would share a fate the selection
        algorithm assumes independent.
        """
        spec = self._specs[service]
        key = (service, host)
        if key in self._handlers:
            raise ValueError(
                f"host {host!r} already runs a replica of {service!r}"
            )
        app = ReplicaApplication(
            host=host,
            servant=spec.servant_factory(),
            profile=spec.profile_factory(host),
            streams=self.streams,
            activity=self.host_activity,
        )
        if app.service != service:
            raise ValueError(
                f"servant implements {app.service!r}, expected {service!r}"
            )
        handler = TimingFaultServerHandler(
            sim=self.sim,
            app=app,
            transport=self.transport,
            marshalling=self.marshalling,
            tracer=self.tracer,
            metrics=self.metrics,
            clock=self.clocks.clock(host),
        )
        self.gateway_for(host).load_handler(handler)
        self._handlers[key] = handler
        self.group_comm.join(service, host, watch=True)
        self.replicas_started += 1
        self.tracer.emit(
            self.sim.now, "proteus", "proteus.start", service=service, host=host
        )
        if self._injector is not None:
            self._wire_faults(key)
        return handler

    def handler_on(
        self, host: str, service: Optional[str] = None
    ) -> TimingFaultServerHandler:
        """The server handler of ``service`` on ``host``.

        ``service`` may be omitted when the host runs exactly one replica.
        """
        if service is not None:
            return self._handlers[(service, host)]
        matches = [
            handler
            for (_svc, handler_host), handler in self._handlers.items()
            if handler_host == host
        ]
        if not matches:
            raise KeyError(f"no replica on host {host!r}")
        if len(matches) > 1:
            raise KeyError(
                f"host {host!r} runs several replicas; pass service="
            )
        return matches[0]

    def hosts_of(self, service: str) -> List[str]:
        """Hosts currently running replicas of ``service`` (live view)."""
        return list(self.group_comm.view(service).members)

    def all_handlers(self) -> List[TimingFaultServerHandler]:
        """Every server handler ever started, in start order.

        Includes evicted/crashed replicas — exactly what a drain-time
        lifecycle audit needs to inspect.
        """
        return list(self._handlers.values())

    # -- health notifications ------------------------------------------------
    def report_health_event(self, service: str, event) -> None:
        """Accept a :class:`~repro.health.HealthEvent` from a client handler.

        The manager records it (``health_reports``), traces it, and counts
        it per transition — giving experiments and operators one place to
        see every suspicion/quarantine/re-admission across all clients.
        """
        self.health_reports.append((service, event))
        self.tracer.emit(
            self.sim.now, "proteus", "proteus.health",
            service=service, replica=event.replica,
            old=event.old_state.value, new=event.new_state.value,
            reason=event.reason,
        )
        self.metrics.increment(
            "proteus.health_transitions",
            labels={
                "service": service,
                "replica": event.replica,
                "to": event.new_state.value,
            },
        )

    def health_listener(self, service: str):
        """A per-service callback suitable for ``health_listener=``."""
        return lambda event: self.report_health_event(service, event)

    # -- fault wiring --------------------------------------------------------
    def _wire_faults(self, key: tuple) -> None:
        assert self._injector is not None
        service, host = key
        handler = self._handlers[key]
        self._injector.on_crash(host, handler.crash)
        self._injector.on_recover(host, lambda: self._recover(key))

    def _recover(self, key: tuple) -> None:
        handler = self._handlers.get(key)
        if handler is None:
            return
        service, host = key
        handler.restart()
        self.group_comm.failure_detector.forget(host)
        if host not in self.group_comm.view(service):
            self.group_comm.join(service, host, watch=True)
        self.tracer.emit(
            self.sim.now, "proteus", "proteus.recover", service=service, host=host
        )

    # -- replication maintenance ---------------------------------------------
    def maintain_replication(
        self, service: str, start_delay_ms: float = 500.0
    ) -> None:
        """Keep the service at its target level using spare hosts.

        After a member eviction drops the view below ``replication_level``,
        a replica is started on the next spare ``start_delay_ms`` later
        (modeling Proteus's restart latency).
        """
        if start_delay_ms < 0:
            raise ValueError(f"start_delay_ms must be >= 0, got {start_delay_ms}")
        spec = self._specs[service]

        def on_view(view: GroupView) -> None:
            missing = spec.replication_level - len(view.members)
            spares = self._spares[service]
            while missing > 0 and spares:
                spare = spares.pop(0)
                missing -= 1
                self.sim.call_in(
                    start_delay_ms,
                    lambda host=spare: self._start_if_absent(service, host),
                )

        self.group_comm.on_view_change(service, "proteus-manager", on_view)

    def _start_if_absent(self, service: str, host: str) -> None:
        if (service, host) in self._handlers or not self.lan.is_up(host):
            return
        self.start_replica(service, host)

    def __repr__(self) -> str:
        return (
            f"<DependabilityManager services={sorted(self._specs)} "
            f"replicas={len(self._handlers)}>"
        )
