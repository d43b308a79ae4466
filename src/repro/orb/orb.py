"""Object request broker: interfaces, interceptors and client stubs.

The AQuA gateway "transparently intercepts a local application's CORBA
message and forwards it to the destination replica group" (paper §2).  The
:class:`Orb` realizes the interception point: client code calls
``stub.invoke(...)`` and gets back a simulation event; whichever protocol
handler is registered as the *interceptor* for that service decides how the
request is actually satisfied (timing-fault selection, active replication,
a single server, ...).
"""

from __future__ import annotations

from typing import Any, Dict

from ..sim.events import Event
from .object import MethodRequest, ServiceInterface

__all__ = ["Orb", "Stub", "RequestInterceptor", "OrbError"]


class OrbError(Exception):
    """Raised on broker misconfiguration (unknown service, double bind)."""


class RequestInterceptor:
    """Protocol a gateway handler implements to receive client requests."""

    def submit(self, request: MethodRequest) -> Event:
        """Accept ``request``; the returned event fires with the reply."""
        raise NotImplementedError


class Orb:
    """Registry of service interfaces and per-service interceptors."""

    def __init__(self) -> None:
        self._interfaces: Dict[str, ServiceInterface] = {}
        self._interceptors: Dict[str, RequestInterceptor] = {}

    # -- interfaces --------------------------------------------------------
    def register_interface(self, interface: ServiceInterface) -> None:
        """Publish a service interface under its name."""
        if interface.name in self._interfaces:
            raise OrbError(f"interface {interface.name!r} already registered")
        self._interfaces[interface.name] = interface

    def interface(self, service: str) -> ServiceInterface:
        """Look up a published interface."""
        try:
            return self._interfaces[service]
        except KeyError:
            raise OrbError(f"unknown service {service!r}") from None

    # -- interception --------------------------------------------------------
    def bind_interceptor(
        self, service: str, interceptor: RequestInterceptor
    ) -> None:
        """Attach the handler that will receive requests for ``service``."""
        self.interface(service)  # must exist
        if service in self._interceptors:
            raise OrbError(f"service {service!r} already has an interceptor")
        self._interceptors[service] = interceptor

    def _intercept(self, request: MethodRequest) -> Event:
        interceptor = self._interceptors.get(request.service)
        if interceptor is None:
            raise OrbError(
                f"no interceptor bound for service {request.service!r}"
            )
        return interceptor.submit(request)

    # -- stubs -------------------------------------------------------------
    def stub(self, service: str) -> "Stub":
        """An object-reference stub for ``service``."""
        return Stub(self, self.interface(service))

    def __repr__(self) -> str:
        return (
            f"<Orb interfaces={sorted(self._interfaces)} "
            f"bound={sorted(self._interceptors)}>"
        )


class Stub:
    """Client-side object reference; invocations return simulation events."""

    def __init__(self, orb: Orb, interface: ServiceInterface) -> None:
        self._orb = orb
        self.interface = interface

    def invoke(self, method: str, *args: Any) -> Event:
        """Invoke ``method(*args)``; the event fires with the reply value.

        Raises :class:`KeyError` immediately for a method not on the
        interface — that is a programming error, not a runtime fault.
        """
        self.interface.method(method)  # validate
        request = MethodRequest(
            service=self.interface.name, method=method, args=tuple(args)
        )
        return self._orb._intercept(request)

    def __repr__(self) -> str:
        return f"<Stub service={self.interface.name!r}>"
