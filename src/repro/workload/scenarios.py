"""Scenario builder: assemble the full AQuA stack in a few lines.

A :class:`Scenario` wires kernel, LAN, transport, group communication,
ORB, Proteus manager, replicas and clients together with one shared seed,
so experiments and examples only describe *what* varies.  All randomness
flows through one named-stream :class:`~repro.rng.RNGManager` (the
``repro.rng`` discipline, docs/REPRODUCIBILITY.md), so a
scenario is replayable from ``config.seed`` alone and adding a component
never perturbs the draws of existing ones.  The defaults
reproduce the paper's §6 testbed: seven replicas on distinct hosts, an
integer-returning servant, and service delays drawn from
Normal(100 ms, 50 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.qos import QoSSpec
from ..core.selection import SelectionPolicy
from ..faultinject.auditor import AuditReport, LifecycleAuditor
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..group.ensemble import GroupCommunication
from ..group.failure_detector import FailureDetector
from ..health import HealthConfig
from ..metrics.collector import MetricsCollector
from ..net.lan import LanModel, LinkProfile, bursty_jitter
from ..net.transport import Transport
from ..orb.iiop import MarshallingModel
from ..overload import OverloadConfig
from ..orb.object import MethodSignature
from ..orb.orb import Orb
from ..proteus.manager import DependabilityManager, ServiceSpec
from ..replica.faults import CrashSchedule, FaultInjector
from ..replica.load import ConstantLoad, LoadModel, ServiceProfile
from ..rng import RNGManager
from ..sim.hostclock import ClockRegistry
from ..sim.kernel import Simulator
from ..sim.random import Constant, Distribution, Normal
from ..sim.trace import NullTracer, Tracer
from .client import ClosedLoopClient, OpenLoopClient
from .ministack import IntegerServant, make_interface

__all__ = ["IntegerServant", "ScenarioConfig", "Scenario", "make_interface"]


@dataclass
class ScenarioConfig:
    """Knobs of a scenario; defaults mirror the paper's testbed.

    ``service_sigma_ms`` follows the σ=50 ms reading of the paper's
    "variance of 50 milliseconds" (see DESIGN.md); pass
    ``service_sigma_ms=50 ** 0.5`` for the literal-variance reading.
    """

    seed: int = 0
    service: str = "search"
    method: str = "process"
    num_replicas: int = 7
    service_mean_ms: float = 100.0
    service_sigma_ms: float = 50.0
    window_size: int = 5
    bin_width_ms: float = 1.0
    selection_charge_ms: float = 0.3
    request_bytes: int = 64
    reply_bytes: int = 64
    bursty_network: bool = False
    # Omission faults: probability a message is lost on any link.
    loss_probability: float = 0.0
    # Optional LAN-wide correlated congestion (breaks Eq. 1 independence).
    shared_congestion: Optional[Distribution] = None
    notify_delay_ms: float = 1.0
    fd_poll_interval_ms: float = 50.0
    fd_confirm_polls: int = 2
    response_timeout_factor: float = 10.0
    trace: bool = False
    keep_samples: bool = True
    # Optional per-host overrides.
    load_factory: Optional[Callable[[str], LoadModel]] = None
    service_distribution_factory: Optional[Callable[[str], Distribution]] = None
    # Extra methods beyond `method`, with their service-time distributions
    # (enables the paper's §8 multi-interface extension).
    extra_methods: Optional[Dict[str, Distribution]] = None
    # Full per-host service profile override; trumps the factories above.
    profile_factory: Optional[Callable[[str], "ServiceProfile"]] = None
    # When set, every client handler runs the health subsystem
    # (suspicion/quarantine/probation; docs/ARCHITECTURE.md §5) and its
    # transitions are reported to the Proteus manager.
    health_config: Optional[HealthConfig] = None
    # When set, every client handler runs the overload subsystem (load
    # tracker + redundancy governor + admission control;
    # docs/ARCHITECTURE.md §6).
    overload_config: Optional[OverloadConfig] = None

    def replica_hosts(self) -> List[str]:
        """Host names the replicas run on."""
        return [f"replica-{i + 1}" for i in range(self.num_replicas)]


class Scenario:
    """A fully wired simulated AQuA deployment."""

    def __init__(self, config: Optional[ScenarioConfig] = None):
        self.config = config or ScenarioConfig()
        cfg = self.config

        self.sim = Simulator()
        # One virtual clock per host; handlers stamp on their own host's
        # clock so the clock-fault plane can de-synchronize them.
        self.clocks = ClockRegistry(self.sim)
        self.streams = RNGManager(base_seed=cfg.seed)
        self.tracer = Tracer() if cfg.trace else NullTracer()
        self.metrics = MetricsCollector(keep_samples=cfg.keep_samples)

        profile = LinkProfile(
            jitter=bursty_jitter() if cfg.bursty_network else Normal(0.3, 0.15),
            loss_probability=cfg.loss_probability,
        )
        self.lan = LanModel(
            self.streams,
            default_profile=profile,
            shared_congestion=cfg.shared_congestion,
        )
        self.transport = Transport(self.sim, self.lan, tracer=self.tracer)
        detector = FailureDetector(
            self.sim,
            self.lan,
            poll_interval_ms=cfg.fd_poll_interval_ms,
            confirm_polls=cfg.fd_confirm_polls,
            tracer=self.tracer,
        )
        self.group_comm = GroupCommunication(
            self.sim,
            self.lan,
            self.transport,
            notify_delay_ms=cfg.notify_delay_ms,
            failure_detector=detector,
            tracer=self.tracer,
        )
        self.marshalling = MarshallingModel()
        self.interface = make_interface(
            cfg.service, cfg.method, cfg.request_bytes, cfg.reply_bytes
        )
        for name in (cfg.extra_methods or {}):
            self.interface.add_method(
                MethodSignature(
                    name=name,
                    request_bytes=cfg.request_bytes,
                    reply_bytes=cfg.reply_bytes,
                )
            )

        self.manager = DependabilityManager(
            self.sim,
            self.lan,
            self.transport,
            self.group_comm,
            self.streams,
            marshalling=self.marshalling,
            tracer=self.tracer,
            metrics=self.metrics,
            clocks=self.clocks,
        )
        self.injector = FaultInjector(self.sim, self.lan, tracer=self.tracer)
        self.manager.attach_injector(self.injector)

        for host in cfg.replica_hosts():
            self.lan.add_host(host)
        spec = ServiceSpec(
            service=cfg.service,
            servant_factory=lambda: IntegerServant(self.interface, cfg.method),
            profile_factory=self._profile_for,
            replication_level=cfg.num_replicas,
        )
        self.replica_hosts = self.manager.deploy(spec, cfg.replica_hosts())
        self.clients: Dict[str, ClosedLoopClient] = {}
        self.open_clients: Dict[str, OpenLoopClient] = {}
        self.handlers: Dict[str, TimingFaultClientHandler] = {}
        # Tracks every client submission so experiments can assert the
        # request-lifecycle invariants after the run (see audit_lifecycle).
        self.auditor = LifecycleAuditor()

    # -- replica profiles ------------------------------------------------------
    def _profile_for(self, host: str) -> ServiceProfile:
        cfg = self.config
        if cfg.profile_factory is not None:
            return cfg.profile_factory(host)
        if cfg.service_distribution_factory is not None:
            distribution = cfg.service_distribution_factory(host)
        else:
            distribution = Normal(cfg.service_mean_ms, cfg.service_sigma_ms)
        load = (
            cfg.load_factory(host) if cfg.load_factory is not None else ConstantLoad()
        )
        return ServiceProfile(
            default=distribution,
            per_method=dict(cfg.extra_methods or {}),
            load=load,
        )

    # -- clients -----------------------------------------------------------
    def add_client(
        self,
        name: str,
        qos: QoSSpec,
        policy: Optional[SelectionPolicy] = None,
        handler_cls=TimingFaultClientHandler,
        num_requests: int = 50,
        think_time: Optional[Distribution] = None,
        window_size: Optional[int] = None,
        violation_callback=None,
        method_chooser=None,
        handler_kwargs: Optional[Dict] = None,
    ) -> ClosedLoopClient:
        """Add a closed-loop client named ``name`` with the given QoS.

        ``handler_kwargs`` forwards extra options to the client handler
        (e.g. ``classifier=``, ``probe_staleness_ms=``,
        ``gateway_window_size=`` for the §8 extensions).
        """
        handler, orb = self._make_handler(
            name, qos, policy, handler_cls, window_size, violation_callback,
            handler_kwargs or {},
        )
        client = ClosedLoopClient(
            sim=self.sim,
            stub=orb.stub(self.config.service),
            host=name,
            streams=self.streams,
            method=self.config.method,
            num_requests=num_requests,
            think_time=think_time or Constant(1000.0),
            method_chooser=method_chooser,
        )
        self.clients[name] = client
        self.handlers[name] = handler
        return client

    def add_open_loop_client(
        self,
        name: str,
        qos: QoSSpec,
        interarrival: Distribution,
        policy: Optional[SelectionPolicy] = None,
        num_requests: int = 100,
        window_size: Optional[int] = None,
    ) -> OpenLoopClient:
        """Add an open-loop client firing on ``interarrival`` gaps."""
        handler, orb = self._make_handler(
            name, qos, policy, TimingFaultClientHandler, window_size, None, {}
        )
        client = OpenLoopClient(
            sim=self.sim,
            stub=orb.stub(self.config.service),
            host=name,
            streams=self.streams,
            interarrival=interarrival,
            method=self.config.method,
            num_requests=num_requests,
        )
        self.open_clients[name] = client
        self.handlers[name] = handler
        return client

    def _make_handler(
        self, name, qos, policy, handler_cls, window_size, violation_callback,
        handler_kwargs,
    ):
        cfg = self.config
        if qos.service != cfg.service:
            raise ValueError(
                f"QoS is for service {qos.service!r}, scenario runs {cfg.service!r}"
            )
        self.lan.add_host(name)
        gateway = self.manager.gateway_for(name)
        handler_kwargs = dict(handler_kwargs)
        if cfg.health_config is not None:
            handler_kwargs.setdefault("health_config", cfg.health_config)
            handler_kwargs.setdefault(
                "health_listener", self.manager.health_listener(cfg.service)
            )
        if cfg.overload_config is not None:
            handler_kwargs.setdefault("overload_config", cfg.overload_config)
        handler_kwargs.setdefault("clock", self.clocks.clock(name))
        handler = handler_cls(
            sim=self.sim,
            host=name,
            transport=self.transport,
            group_comm=self.group_comm,
            interface=self.interface,
            qos=qos,
            policy=policy,
            window_size=window_size if window_size is not None else cfg.window_size,
            bin_width_ms=cfg.bin_width_ms,
            marshalling=self.marshalling,
            selection_charge_ms=cfg.selection_charge_ms,
            response_timeout_factor=cfg.response_timeout_factor,
            violation_callback=violation_callback,
            rng=self.streams.stream(f"client.{name}.policy"),
            distance=lambda replica: self.lan.zone_distance(name, replica),
            tracer=self.tracer,
            metrics=self.metrics,
            **handler_kwargs,
        )
        gateway.load_handler(handler)
        self.auditor.watch_client(handler)
        # Each client process gets its own ORB, like separate CORBA
        # applications on separate hosts.
        orb = Orb()
        orb.register_interface(self.interface)
        orb.bind_interceptor(cfg.service, handler)
        return handler, orb

    # -- faults -----------------------------------------------------------
    def schedule_crash(
        self, host: str, at_ms: float, recover_at_ms: Optional[float] = None
    ) -> None:
        """Crash ``host`` at ``at_ms`` (optionally recovering later)."""
        self.injector.schedule(CrashSchedule(host, at_ms, recover_at_ms))

    # -- running ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def run_to_completion(self, limit_ms: float = 10_000_000.0) -> None:
        """Run until every client finished (bounded by ``limit_ms``)."""
        self.sim.run()
        unfinished = [
            c.host
            for c in list(self.clients.values()) + list(self.open_clients.values())
            if not c.done
        ]
        if unfinished and self.sim.now < limit_ms:
            # Live events drained while clients still wait (e.g. replies
            # lost to a crash): let daemon activity (failure detection)
            # unblock them, then continue.
            while unfinished and self.sim.now < limit_ms:
                self.sim.run(until=min(limit_ms, self.sim.now + 1000.0))
                self.sim.run()
                unfinished = [
                    c.host
                    for c in list(self.clients.values())
                    + list(self.open_clients.values())
                    if not c.done
                ]
        if unfinished:
            raise RuntimeError(
                f"clients {unfinished} did not finish before {limit_ms} ms"
            )

    # -- lifecycle auditing ------------------------------------------------
    def audit_lifecycle(self) -> AuditReport:
        """Assert the request-lifecycle invariants after a drained run.

        Registers every replica ever started (crashed ones included) and
        raises :class:`~repro.faultinject.auditor.LifecycleViolation` on
        leaked pending/alias/probe state, resurrection, or a request that
        did not complete exactly once.
        """
        for handler in self.manager.all_handlers():
            self.auditor.watch_server(handler)
        return self.auditor.assert_clean()

    def __repr__(self) -> str:
        return (
            f"<Scenario service={self.config.service!r} "
            f"replicas={self.config.num_replicas} clients={len(self.clients)}>"
        )
