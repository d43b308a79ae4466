"""Proteus-style dependability manager.

In AQuA, "the Proteus dependability manager manages the replication level
for different applications based on their dependability requirements"
(paper §2).  Here the manager decides *what* runs *where* on a
:class:`~repro.workload.ministack.Deployment`: it deploys a service's
replicas onto hosts (a host may run replicas of several services, which
then share a :class:`~repro.replica.load.HostActivity`) and aggregates the health transitions the client
gateways report.  Starting a replica, and crashing or restarting a host,
are the deployment's own paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..gateway.handlers.timing_fault import TimingFaultServerHandler
from ..orb.object import Servant
from ..replica.load import HostActivity, ServiceProfile

if TYPE_CHECKING:
    from ..workload.ministack import Deployment

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
    """Deploys and maintains replicated services on one deployment."""

    def __init__(self, stack: "Deployment"):
        self.stack = stack
        self._specs: Dict[str, ServiceSpec] = {}
        # Shared co-location activity, consumed by CoupledLoad profiles.
        self.host_activity = HostActivity()
        self.replicas_started = 0
        # Health transitions reported by client handlers, as
        # (service, HealthEvent) in arrival order — AQuA's fault
        # notification path: gateways observe, Proteus aggregates.
        self.health_reports: List[tuple] = []

    # -- deployment ------------------------------------------------------------
    def deploy(self, spec: ServiceSpec, hosts: List[str]) -> List[str]:
        """Deploy ``spec`` onto the first ``replication_level`` hosts.

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
        if self._runs(service, host):
            raise ValueError(
                f"host {host!r} already runs a replica of {service!r}"
            )
        servant = spec.servant_factory()
        if servant.interface.name != service:
            raise ValueError(
                f"servant implements {servant.interface.name!r}, "
                f"expected {service!r}"
            )
        handler = self.stack.start_server(
            host, servant, spec.profile_factory(host), activity=self.host_activity
        )
        self.replicas_started += 1
        return handler

    def _runs(self, service: str, host: str) -> bool:
        return any(
            handler.service == service
            for handler in self.stack.replicas.get(host, ())
        )

    def handler_on(
        self, host: str, service: Optional[str] = None
    ) -> TimingFaultServerHandler:
        """The server handler of ``service`` on ``host``.

        ``service`` may be omitted when the host runs exactly one replica.
        """
        matches = [
            handler
            for handler in self.stack.replicas.get(host, ())
            if service is None or handler.service == service
        ]
        if not matches:
            raise KeyError(f"no replica of {service or 'any service'} on {host!r}")
        if len(matches) > 1:
            raise KeyError(
                f"host {host!r} runs several replicas; pass service="
            )
        return matches[0]

    # -- health notifications ------------------------------------------------
    def report_health_event(self, service: str, event) -> None:
        """Accept a :class:`~repro.health.HealthEvent` from a client handler.

        The manager records it (``health_reports``) — giving
        experiments and operators one place to see every suspicion,
        quarantine and re-admission across all clients.
        """
        self.health_reports.append((service, event))

    def health_listener(self, service: str):
        """A per-service callback suitable for ``health_listener=``."""
        return lambda event: self.report_health_event(service, event)

    def __repr__(self) -> str:
        return (
            f"<DependabilityManager services={sorted(self._specs)} "
            f"replicas={self.replicas_started}>"
        )
