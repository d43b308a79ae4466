"""The replica-side application: servant + service-time behaviour.

A :class:`ReplicaApplication` is what runs on one server host: it owns the
servant (business logic), knows how long requests take there (service
profile × host load), and performs the servant upcall (the DII step of
paper §5.1).  The *gateway* concerns — request queue, stage timestamps,
performance publication — live in
:class:`repro.gateway.handlers.timing_fault.TimingFaultServerHandler`,
mirroring the paper's separation between the AQuA server and its gateway.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..orb.object import MethodRequest, Servant
from ..rng import RNGManager
from .load import HostActivity, ServiceProfile

__all__ = ["ReplicaApplication"]


class ReplicaApplication:
    """One replica of a service, pinned to a host.

    Parameters
    ----------
    host:
        Name of the host the replica runs on (its network identity).
    servant:
        The application object implementing the service interface.
    profile:
        Service-time model (per-method distributions + host load).
    streams:
        Random-stream family; the replica draws service times from its own
        substream ``replica.<host>.service``.
    """

    def __init__(
        self,
        host: str,
        servant: Servant,
        profile: ServiceProfile,
        streams: RNGManager,
        activity: Optional["HostActivity"] = None,
    ):
        self.host = host
        self.servant = servant
        self.profile = profile
        # Shared co-location tracker (paper §3: "a machine may host
        # multiple replicas"); None when the host runs a single replica.
        self.activity = activity
        self._rng: np.random.Generator = streams.stream(
            f"replica.{host}.{servant.interface.name}.service"
        )
        self.requests_served = 0

    @property
    def service(self) -> str:
        """Name of the service this replica offers."""
        return self.servant.interface.name

    def service_duration(self, method: str, now_ms: float) -> float:
        """Sample how long servicing ``method`` takes right now (ms)."""
        return self.profile.sample_duration(method, now_ms, self._rng)

    def begin_service(self) -> None:
        """Mark this replica busy for co-location load coupling."""
        if self.activity is not None:
            self.activity.enter(self.host)

    def end_service(self) -> None:
        """Mark this replica idle again."""
        if self.activity is not None:
            self.activity.exit(self.host)

    def execute(self, request: MethodRequest) -> Any:
        """Perform the servant upcall and return the reply value."""
        value = self.servant.dispatch(request.method, request.args)
        self.requests_served += 1
        return value

    def __repr__(self) -> str:
        return (
            f"<ReplicaApplication host={self.host!r} "
            f"service={self.service!r} served={self.requests_served}>"
        )
