"""Client stubs and the interception point behind them.

The AQuA gateway "transparently intercepts a local application's CORBA
message and forwards it to the destination replica group" (paper §2).  A
:class:`Stub` realizes the interception point: client code calls
``stub.invoke(...)`` and gets back a simulation event; the protocol
handler bound as the stub's *interceptor* decides how the request is
actually satisfied (timing-fault selection, active replication, a single
server, ...).
"""

from __future__ import annotations

from typing import Any

from ..sim.events import Event
from .object import MethodRequest, ServiceInterface

__all__ = ["Stub", "RequestInterceptor"]


class RequestInterceptor:
    """Protocol a gateway handler implements to receive client requests."""

    def submit(self, request: MethodRequest) -> Event:
        """Accept ``request``; the returned event fires with the reply."""
        raise NotImplementedError


class Stub:
    """Client-side object reference; invocations return simulation events."""

    def __init__(
        self, interface: ServiceInterface, interceptor: RequestInterceptor
    ) -> None:
        self.interface = interface
        self._interceptor = interceptor

    def invoke(self, method: str, *args: Any) -> Event:
        """Invoke ``method(*args)``; the event fires with the reply value.

        Raises :class:`KeyError` immediately for a method not on the
        interface — that is a programming error, not a runtime fault.
        """
        self.interface.method(method)  # validate
        request = MethodRequest(
            service=self.interface.name, method=method, args=tuple(args)
        )
        return self._interceptor.submit(request)

    def __repr__(self) -> str:
        return f"<Stub service={self.interface.name!r}>"
