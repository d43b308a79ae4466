"""The mini AQuA stack: a bare, fully controllable deployment.

:class:`~repro.workload.scenarios.Scenario` assembles the paper's §6
testbed behind a config object (Proteus manager, realistic LAN jitter,
marshalling costs).  A :class:`MiniStack` is the other builder: the same
layers wired directly — zero-jitter 1 ms links, free marshalling,
constant service times, a fast failure detector — with every layer
exposed as an attribute, servers and clients added one call at a time.
The fault experiments (A15, A17, A18) and the handler-level test suites
all deploy through it, so a new plane (clocks, partitions, …) is
threaded through one place.

Hand it a :class:`~repro.faultinject.schedule.FaultSchedule` and the
wire becomes a :class:`~repro.faultinject.transport.FaultyTransport`
drawing from its own ``wire_seed``; host-level drivers
(:mod:`repro.faultinject.drivers` and friends) attach to the exposed
``sim``/``lan``/``group_comm``/``servers``/``clocks``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.qos import QoSSpec
from ..faultinject.auditor import LifecycleAuditor
from ..faultinject.schedule import FaultSchedule
from ..faultinject.transport import FaultyTransport
from ..gateway.gateway import Gateway
from ..gateway.handlers.timing_fault import (
    TimingFaultClientHandler,
    TimingFaultServerHandler,
)
from ..group.ensemble import GroupCommunication
from ..group.failure_detector import FailureDetector
from ..net.lan import LanModel, LinkProfile
from ..net.transport import Transport
from ..orb.iiop import MarshallingModel
from ..orb.object import MethodSignature, Servant, ServiceInterface
from ..orb.orb import Orb
from ..replica.load import ServiceProfile
from ..replica.server import ReplicaApplication
from ..rng import RNGManager
from ..sim.events import Event
from ..sim.hostclock import ClockRegistry
from ..sim.kernel import Simulator
from ..sim.random import Constant, Distribution

__all__ = ["IntegerServant", "MiniStack", "make_interface", "SERVICE", "METHOD"]

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

    def __init__(self, interface: ServiceInterface, method: str = METHOD):
        super().__init__(interface)
        self._method = method

    def dispatch(self, method: str, args) -> int:
        if method not in self.interface:
            raise KeyError(f"unknown method {method!r}")
        index = args[0] if args else 0
        return int(index)


class MiniStack:
    """A minimal deterministic deployment, wired layer by layer.

    ``seed`` roots every deployment stream (one
    :class:`~repro.rng.RNGManager`).  With a ``schedule`` the wire is
    fault-injectable and draws from ``RNGManager(wire_seed)``; without
    one it is the plain transport.  The stack owns a
    :class:`~repro.faultinject.auditor.LifecycleAuditor` watching every
    server and client it adds.
    """

    def __init__(
        self,
        seed: int = 0,
        schedule: Optional[FaultSchedule] = None,
        wire_seed: int = 0,
    ) -> None:
        self.sim = Simulator()
        # One virtual clock per host, handed to that host's handler, so
        # the clock-fault plane can de-synchronize them.
        self.clocks = ClockRegistry(self.sim)
        self.streams = RNGManager(base_seed=seed)
        profile = LinkProfile(
            stack_ms=1.0, per_kb_ms=0.0, per_member_ms=0.0, jitter=Constant(0.0)
        )
        self.lan = LanModel(self.streams, default_profile=profile)
        self.inner_transport = Transport(self.sim, self.lan)
        self.transport: Any = self.inner_transport
        if schedule is not None:
            self.transport = FaultyTransport(
                self.inner_transport,
                schedule=schedule,
                streams=RNGManager(wire_seed),
            )
        self.detector = FailureDetector(
            self.sim, self.lan, poll_interval_ms=10.0, confirm_polls=2
        )
        self.group_comm = GroupCommunication(
            self.sim,
            self.lan,
            self.transport,
            notify_delay_ms=1.0,
            failure_detector=self.detector,
        )
        self.marshalling = MarshallingModel(
            base_ms=0.0, per_kb_ms=0.0, envelope_bytes=0
        )
        self.interface = make_interface(SERVICE, METHOD)
        self.auditor = LifecycleAuditor()
        if schedule is not None:
            self.auditor.set_schedule(schedule)
        self.servers: Dict[str, TimingFaultServerHandler] = {}
        self.clients: Dict[str, TimingFaultClientHandler] = {}
        self.stubs: Dict[str, Any] = {}

    def add_server(
        self, host: str, service_time: Optional[Distribution] = None
    ) -> TimingFaultServerHandler:
        """Start a replica on ``host`` (default service time 10 ms)."""
        self.lan.add_host(host)
        app = ReplicaApplication(
            host=host,
            servant=IntegerServant(self.interface, METHOD),
            profile=ServiceProfile(default=service_time or Constant(10.0)),
            streams=self.streams,
        )
        handler = TimingFaultServerHandler(
            sim=self.sim,
            app=app,
            transport=self.transport,
            marshalling=self.marshalling,
            clock=self.clocks.clock(host),
        )
        Gateway(host, self.sim, self.transport).load_handler(handler)
        self.group_comm.join(SERVICE, host, watch=True)
        self.servers[host] = handler
        self.auditor.watch_server(handler)
        return handler

    def add_client(
        self,
        host: str,
        deadline_ms: float = 100.0,
        min_probability: float = 0.0,
        handler_cls: type = TimingFaultClientHandler,
        **handler_kwargs: Any,
    ) -> TimingFaultClientHandler:
        """Load a client gateway handler on ``host`` and bind its stub.

        ``handler_kwargs`` go to the handler verbatim; the selection
        charge defaults to zero (the stack is cost-free by default).
        """
        self.lan.add_host(host)
        handler_kwargs.setdefault("selection_charge_ms", 0.0)
        handler = handler_cls(
            sim=self.sim,
            host=host,
            transport=self.transport,
            group_comm=self.group_comm,
            interface=self.interface,
            qos=QoSSpec(SERVICE, deadline_ms, min_probability),
            marshalling=self.marshalling,
            rng=self.streams.stream(f"client.{host}.policy"),
            clock=self.clocks.clock(host),
            **handler_kwargs,
        )
        Gateway(host, self.sim, self.transport).load_handler(handler)
        self.auditor.watch_client(handler)
        orb = Orb()
        orb.register_interface(self.interface)
        orb.bind_interceptor(SERVICE, handler)
        self.clients[host] = handler
        self.stubs[host] = orb.stub(SERVICE)
        return handler

    def invoke(self, client_host: str, arg: int = 0) -> Event:
        """Fire one request through the client's stub; returns the event."""
        return self.stubs[client_host].invoke(METHOD, arg)
