"""Proteus-style dependability manager.

In AQuA, "the Proteus dependability manager manages the replication level
for different applications based on their dependability requirements"
(paper §2).  Here the manager decides *what* runs *where* on a
:class:`~repro.workload.ministack.Deployment`: it deploys a service's
replicas onto hosts (a host may run replicas of several services, which
then share a :class:`~repro.replica.load.HostActivity`).  Starting a
replica, and crashing or restarting a host, are the deployment's own
paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..gateway.handlers.timing_fault import TimingFaultServerHandler
from ..orb.object import Servant
from ..replica.load import HostActivity, ServiceProfile

if TYPE_CHECKING:
    from ..workload.ministack import Deployment

__all__ = ["DependabilityManager"]


class DependabilityManager:
    """Deploys replicated services on one deployment."""

    def __init__(self, stack: "Deployment"):
        self.stack = stack
        # Shared co-location activity, consumed by CoupledLoad profiles.
        self.host_activity = HostActivity()

    def deploy(
        self,
        service: str,
        servant_factory: Callable[[], Servant],
        profile_factory: Callable[[str], ServiceProfile],
        hosts: List[str],
    ) -> None:
        """Start one replica of ``service`` on each of ``hosts``.

        ``servant_factory`` builds a fresh servant per replica and
        ``profile_factory`` its service-time profile from the host name.
        A host may run replicas of several *different* services (the
        gateway routes by service); two replicas of the *same* service on
        one host are rejected — they would share a fate the selection
        algorithm assumes independent.
        """
        for host in hosts:
            if any(h.service == service for h in self.stack.replicas.get(host, ())):
                raise ValueError(f"host {host!r} already runs a replica of {service!r}")
            servant = servant_factory()
            if servant.interface.name != service:
                raise ValueError(
                    f"servant implements {servant.interface.name!r}, "
                    f"expected {service!r}"
                )
            self.stack.start_server(
                host, servant, profile_factory(host), activity=self.host_activity
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

    def __repr__(self) -> str:
        return f"<DependabilityManager hosts={sorted(self.stack.replicas)}>"
