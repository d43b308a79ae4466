"""Scenario: the paper's §6 testbed as a preset of the one deployment.

A :class:`Scenario` is a :class:`~repro.workload.ministack.Deployment`
wired with the testbed's values (LAN jitter/loss/shared congestion, stock
marshalling costs, a 50 ms x 2 failure detector, a metrics collector) from
one :class:`ScenarioConfig`, plus what is its own: a Proteus manager
deploying the configured replicas, closed/open-loop clients, scripted
crashes and a bounded run-to-completion.  All randomness flows through
one named-stream :class:`~repro.rng.RNGManager` (the ``repro.rng``
discipline, docs/REPRODUCIBILITY.md), so a scenario is replayable from
``config.seed`` alone and adding a component never perturbs the draws of
existing ones.  The defaults reproduce the paper's testbed: seven
replicas on distinct hosts, an integer-returning servant, and service
delays drawn from Normal(100 ms, 50 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.qos import QoSSpec
from ..core.selection import SelectionPolicy
from ..faultinject.auditor import AuditReport
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..health import HealthConfig
from ..metrics.collector import MetricsCollector
from ..net.lan import LinkProfile, bursty_jitter
from ..orb.iiop import MarshallingModel
from ..orb.object import MethodSignature
from ..orb.orb import Stub
from ..proteus.manager import DependabilityManager, ServiceSpec
from ..replica.load import ConstantLoad, LoadModel, ServiceProfile
from ..sim.random import Constant, Distribution, Normal
from .client import ClosedLoopClient
from .ministack import Deployment, IntegerServant, Wiring, make_interface

__all__ = ["IntegerServant", "ScenarioConfig", "Scenario", "make_interface"]

#: Simulated time by which :meth:`Scenario.run_to_completion` must have
#: seen every client finish, ms.
RUN_LIMIT_MS = 10_000_000.0


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
    request_bytes: int = 64
    reply_bytes: int = 64
    bursty_network: bool = False
    # Omission faults: probability a message is lost on any link.
    loss_probability: float = 0.0
    # Optional LAN-wide correlated congestion (breaks Eq. 1 independence).
    shared_congestion: Optional[Distribution] = None
    fd_poll_interval_ms: float = 50.0
    response_timeout_factor: float = 10.0
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
    # When true, every client handler runs the overload subsystem (load
    # tracker + redundancy governor + admission control;
    # docs/ARCHITECTURE.md §6).
    overload_config: bool = False

    def replica_hosts(self) -> List[str]:
        """Host names the replicas run on."""
        return [f"replica-{i + 1}" for i in range(self.num_replicas)]


class Scenario(Deployment):
    """The paper's testbed: a deployment wired from a :class:`ScenarioConfig`."""

    def __init__(self, config: Optional[ScenarioConfig] = None):
        self.config = config or ScenarioConfig()
        cfg = self.config
        interface = make_interface(
            cfg.service, cfg.method, cfg.request_bytes, cfg.reply_bytes
        )
        for name in (cfg.extra_methods or {}):
            interface.add_method(
                MethodSignature(
                    name=name,
                    request_bytes=cfg.request_bytes,
                    reply_bytes=cfg.reply_bytes,
                )
            )
        super().__init__(cfg.seed, self._wiring(), interface)
        self.manager = DependabilityManager(self)
        spec = ServiceSpec(
            service=cfg.service,
            servant_factory=lambda: IntegerServant(self.interface),
            profile_factory=self._profile_for,
            replication_level=cfg.num_replicas,
        )
        self.replica_hosts = self.manager.deploy(spec, cfg.replica_hosts())
        self.clients: Dict[str, ClosedLoopClient] = {}
        self.handlers: Dict[str, TimingFaultClientHandler] = {}

    def _wiring(self) -> Wiring:
        """The testbed's values for the layers every deployment has."""
        cfg = self.config
        return Wiring(
            link=LinkProfile(
                jitter=bursty_jitter() if cfg.bursty_network else Normal(0.3, 0.15),
                loss_probability=cfg.loss_probability,
            ),
            shared_congestion=cfg.shared_congestion,
            marshalling=MarshallingModel(),
            fd_poll_interval_ms=cfg.fd_poll_interval_ms,
            metrics=MetricsCollector(keep_samples=cfg.keep_samples),
        )

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

        ``handler_kwargs`` are further fields of the client's
        :class:`~repro.engine.EngineConfig` (e.g. ``classifier=``,
        ``probe_staleness_ms=``, ``gateway_window_size=`` for the §8
        extensions).
        """
        stub = self._bind(
            name, qos, handler_cls, window_size, policy=policy,
            violation_callback=violation_callback, **(handler_kwargs or {}),
        )
        client = ClosedLoopClient(
            sim=self.sim,
            stub=stub,
            host=name,
            streams=self.streams,
            method=self.config.method,
            num_requests=num_requests,
            think_time=think_time or Constant(1000.0),
            method_chooser=method_chooser,
        )
        self.clients[name] = client
        return client

    def _bind(
        self, name: str, qos: QoSSpec, handler_cls: type,
        window_size: Optional[int], **options,
    ) -> Stub:
        """Bind ``name``'s handler: the config's client options under ``options``."""
        cfg = self.config
        if qos.service != cfg.service:
            raise ValueError(
                f"QoS is for service {qos.service!r}, scenario runs {cfg.service!r}"
            )
        defaults = dict(
            window_size=window_size if window_size is not None else cfg.window_size,
            response_timeout_factor=cfg.response_timeout_factor,
            overload_config=cfg.overload_config,
        )
        if cfg.health_config is not None:
            defaults["health_config"] = cfg.health_config
            defaults["health_listener"] = self.manager.health_listener(cfg.service)
        self.handlers[name], stub = self.bind_client(
            name, qos, handler_cls, **{**defaults, **options}
        )
        return stub

    # -- running ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def run_to_completion(self) -> None:
        """Run until every client finished (bounded by :data:`RUN_LIMIT_MS`)."""
        self.sim.run()
        # Live events drained while clients still wait (e.g. replies lost
        # to a crash): let daemon activity (failure detection) unblock
        # them, then continue.
        while self._unfinished() and self.sim.now < RUN_LIMIT_MS:
            self.sim.run(until=min(RUN_LIMIT_MS, self.sim.now + 1000.0))
            self.sim.run()
        unfinished = self._unfinished()
        if unfinished:
            raise RuntimeError(
                f"clients {unfinished} did not finish before {RUN_LIMIT_MS} ms"
            )

    def _unfinished(self) -> List[str]:
        return [client.host for client in self.clients.values() if not client.done]

    # -- lifecycle auditing ------------------------------------------------
    def audit_lifecycle(self) -> AuditReport:
        """Assert the request-lifecycle invariants after a drained run.

        Covers every client bound and every replica ever started (crashed
        ones included); raises
        :class:`~repro.faultinject.auditor.LifecycleViolation` on leaked
        pending/alias/probe state, resurrection, or a request that did
        not complete exactly once.
        """
        return self.auditor.assert_clean()

    def __repr__(self) -> str:
        return (
            f"<Scenario service={self.config.service!r} "
            f"replicas={self.config.num_replicas} clients={len(self.clients)}>"
        )
