"""The one deployment wiring, and its bare preset.

:class:`Deployment` is the only place the AQuA layers are assembled:
kernel, per-host clocks, named RNG streams, LAN, transport (optionally
fault-injectable), failure detector, group communication, marshalling,
lifecycle auditor, one gateway per host, and the two paths that start a
replica (:meth:`Deployment.start_server`) and bind a client
(:meth:`Deployment.bind_client`).  What differs between deployments is a
:class:`Wiring` of values, not code: :class:`MiniStack` keeps the bare
defaults (the fault experiments A15/A17/A18 and the handler-level test
suites run on it) and :class:`~repro.workload.scenarios.Scenario` is the
paper's §6 testbed preset.

Faults enter through one call: ``stack.faults.apply(schedule)`` (the
deployment's :class:`~repro.faultinject.plane.FaultPlane`), made once the
servers and clients exist.  A stack built with ``faulty_wire=True`` sends
through a :class:`~repro.faultinject.transport.FaultyTransport` drawing
from ``wire_seed`` and can inject all nine fault families; the default
plain wire pays no per-message rule scan and rejects a schedule holding
message-level rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.qos import QoSSpec
from ..engine import EngineConfig
from ..faultinject.auditor import LifecycleAuditor
from ..faultinject.plane import FaultPlane
from ..faultinject.schedule import CrashRestartFault, FaultSchedule
from ..faultinject.transport import FaultyTransport
from ..gateway.gateway import Gateway
from ..gateway.handlers.timing_fault import (
    TimingFaultClientHandler,
    TimingFaultServerHandler,
)
from ..group.ensemble import GroupCommunication
from ..group.failure_detector import FailureDetector
from ..metrics.collector import MetricsCollector
from ..net.lan import LanModel, LinkProfile
from ..net.transport import Transport
from ..orb.iiop import MarshallingModel
from ..orb.object import MethodSignature, Servant, ServiceInterface
from ..orb.orb import Stub
from ..replica.load import HostActivity, ServiceProfile
from ..replica.server import ReplicaApplication
from ..rng import RNGManager
from ..sim.events import Event
from ..sim.hostclock import ClockRegistry
from ..sim.kernel import Simulator
from ..sim.random import Constant, Distribution

__all__ = [
    "Deployment",
    "IntegerServant",
    "MiniStack",
    "Wiring",
    "make_interface",
    "SERVICE",
    "METHOD",
]

SERVICE = "search"
METHOD = "process"


def make_interface(
    service: str = SERVICE,
    method: str = METHOD,
    request_bytes: int = 64,
    reply_bytes: int = 64,
) -> ServiceInterface:
    """A single-method interface, as the paper assumes (§8: one method)."""
    interface = ServiceInterface(service)
    interface.add_method(
        MethodSignature(
            name=method, request_bytes=request_bytes, reply_bytes=reply_bytes
        )
    )
    return interface


class IntegerServant(Servant):
    """Replies with integer data, like the paper's test servers (§6).

    Accepts every method on its interface (the reply value is the echoed
    request index either way); the *duration* differences between methods
    live in the replica's :class:`ServiceProfile`.
    """

    def dispatch(self, method: str, args) -> int:
        if method not in self.interface:
            raise KeyError(f"unknown method {method!r}")
        index = args[0] if args else 0
        return int(index)


@dataclass(frozen=True)
class Wiring:
    """The values one deployment is wired with.

    The defaults are the bare stack: zero-jitter 1 ms links, free
    marshalling, a failure detector polling every 10 ms, one private
    metrics collector per client handler.  Every
    deployment confirms a crash after two missed polls and delivers a
    view change 1 ms after it (the group layer's defaults).
    """

    link: LinkProfile = field(
        default_factory=lambda: LinkProfile(
            stack_ms=1.0, per_kb_ms=0.0, per_member_ms=0.0, jitter=Constant(0.0)
        )
    )
    # Optional LAN-wide correlated congestion (breaks Eq. 1 independence).
    shared_congestion: Optional[Distribution] = None
    marshalling: MarshallingModel = field(
        default_factory=lambda: MarshallingModel(
            base_ms=0.0, per_kb_ms=0.0, envelope_bytes=0
        )
    )
    fd_poll_interval_ms: float = 10.0
    metrics: Optional[MetricsCollector] = None


class Deployment:
    """The AQuA stack wired layer by layer, every layer an attribute.

    ``seed`` roots every deployment stream (one
    :class:`~repro.rng.RNGManager`); ``wire_seed`` roots the fault
    plane's own draws (the ``faulty_wire``'s probabilistic rules, clock
    jitter), so injecting faults never perturbs the deployment's streams.
    Servers and clients are started one call at a time; every one is
    watched by the deployment's
    :class:`~repro.faultinject.auditor.LifecycleAuditor`, and ``faults``
    (the one :class:`~repro.faultinject.plane.FaultPlane`) applies fault
    schedules to whatever runs on a host.
    """

    def __init__(
        self,
        seed: int,
        wiring: Wiring,
        interface: ServiceInterface,
        faulty_wire: bool = False,
        wire_seed: int = 0,
    ) -> None:
        self.sim = Simulator()
        # One virtual clock per host, handed to that host's handlers, so
        # the clock-fault plane can de-synchronize them.
        self.clocks = ClockRegistry(self.sim)
        self.streams = RNGManager(base_seed=seed)
        self.metrics = wiring.metrics
        self.lan = LanModel(
            self.streams,
            default_profile=wiring.link,
            shared_congestion=wiring.shared_congestion,
        )
        self.transport: Any = Transport(self.sim, self.lan)
        if faulty_wire:
            self.transport = FaultyTransport(self.transport, RNGManager(wire_seed))
        self.detector = FailureDetector(
            self.sim, self.lan, poll_interval_ms=wiring.fd_poll_interval_ms
        )
        self.group_comm = GroupCommunication(
            self.sim, self.lan, self.transport, failure_detector=self.detector
        )
        self.marshalling = wiring.marshalling
        self.interface = interface
        self.auditor = LifecycleAuditor()
        self._gateways: Dict[str, Gateway] = {}
        # host -> every replica started on it, in start order (a host may
        # run replicas of several services; paper §3).
        self.replicas: Dict[str, List[TimingFaultServerHandler]] = {}
        # client host -> the stub bound for it.
        self.stubs: Dict[str, Stub] = {}
        self.faults = FaultPlane(
            self.sim,
            self.lan,
            self.group_comm,
            self.replicas,
            self.clocks,
            self.stubs,
            self.transport,
            self.auditor,
            wire_seed,
        )

    def gateway_for(self, host: str) -> Gateway:
        """The gateway of ``host``, creating (and binding) it if needed."""
        gateway = self._gateways.get(host)
        if gateway is None:
            gateway = Gateway(host, self.sim, self.transport)
            self._gateways[host] = gateway
        return gateway

    def start_server(
        self,
        host: str,
        servant: Servant,
        profile: ServiceProfile,
        activity: Optional[HostActivity] = None,
    ) -> TimingFaultServerHandler:
        """Start a replica of ``servant``'s service on ``host``.

        Builds the application and its server handler, loads the handler
        in the host's gateway and joins the service's group (watched by
        the failure detector).
        """
        if not self.lan.has_host(host):
            self.lan.add_host(host)
        app = ReplicaApplication(
            host=host,
            servant=servant,
            profile=profile,
            streams=self.streams,
            activity=activity,
        )
        handler = TimingFaultServerHandler(
            sim=self.sim,
            app=app,
            transport=self.transport,
            marshalling=self.marshalling,
            clock=self.clocks.clock(host),
        )
        self.gateway_for(host).load_handler(handler)
        self.replicas.setdefault(host, []).append(handler)
        self.group_comm.join(handler.service, host)
        self.auditor.watch_server(handler)
        return handler

    def bind_client(
        self,
        host: str,
        qos: QoSSpec,
        handler_cls: type = TimingFaultClientHandler,
        **options: Any,
    ) -> Tuple[TimingFaultClientHandler, Stub]:
        """Load a client gateway handler on new host ``host``; bind its stub.

        ``options`` are the fields of the client's
        :class:`~repro.engine.EngineConfig` — the one place flat keywords
        become a config — except the four substrate keywords, which
        override the deployment's own marshalling, policy stream, host
        clock and metrics.  The stub is bound to that handler alone,
        like separate CORBA applications on separate hosts.
        """
        self.lan.add_host(host)
        substrate = {
            "marshalling": self.marshalling,
            "rng": self.streams.stream(f"client.{host}.policy"),
            "clock": self.clocks.clock(host),
            "metrics": self.metrics,
        }
        for key in substrate.keys() & options.keys():
            substrate[key] = options.pop(key)
        handler = handler_cls(
            sim=self.sim,
            host=host,
            transport=self.transport,
            group_comm=self.group_comm,
            interface=self.interface,
            qos=qos,
            config=EngineConfig(**options),
            **substrate,
        )
        self.gateway_for(host).load_handler(handler)
        self.auditor.watch_client(handler)
        self.stubs[host] = Stub(self.interface, handler)
        return handler, self.stubs[host]

    def schedule_crash(
        self, host: str, at_ms: float, recover_at_ms: Optional[float] = None
    ) -> None:
        """Crash ``host`` at ``at_ms`` (optionally recovering later)."""
        self.faults.apply(
            FaultSchedule(crashes=(CrashRestartFault(host, at_ms, recover_at_ms),))
        )


class MiniStack(Deployment):
    """The bare preset: one ``search`` service, constant service times.

    Every layer keeps the :class:`Wiring` defaults, so a run is exact
    arithmetic on the schedule it is given.
    """

    def __init__(
        self, seed: int = 0, faulty_wire: bool = False, wire_seed: int = 0
    ) -> None:
        super().__init__(
            seed, Wiring(), make_interface(SERVICE, METHOD), faulty_wire, wire_seed
        )
        self.servers: Dict[str, TimingFaultServerHandler] = {}
        self.clients: Dict[str, TimingFaultClientHandler] = {}

    def add_server(
        self, host: str, service_time: Optional[Distribution] = None
    ) -> TimingFaultServerHandler:
        """Start a replica on ``host`` (default service time 10 ms)."""
        handler = self.start_server(
            host,
            IntegerServant(self.interface),
            ServiceProfile(default=service_time or Constant(10.0)),
        )
        self.servers[host] = handler
        return handler

    def add_client(
        self,
        host: str,
        deadline_ms: float = 100.0,
        min_probability: float = 0.0,
        handler_cls: type = TimingFaultClientHandler,
        **options: Any,
    ) -> TimingFaultClientHandler:
        """Load a client gateway handler on ``host`` and bind its stub.

        ``options`` go to :meth:`bind_client`; the selection charge
        defaults to zero (the stack is cost-free by default).
        """
        options.setdefault("selection_charge_ms", 0.0)
        self.clients[host], _stub = self.bind_client(
            host,
            QoSSpec(SERVICE, deadline_ms, min_probability),
            handler_cls,
            **options,
        )
        return self.clients[host]

    def invoke(self, client_host: str, arg: int = 0) -> Event:
        """Fire one request through the client's stub; returns the event."""
        return self.stubs[client_host].invoke(METHOD, arg)
