"""The AQuA gateway: per-host message dispatch to protocol handlers.

Each host runs one gateway.  The gateway is the host's single transport
endpoint; it routes incoming messages to the protocol handlers loaded in
it by message kind (each handler declares the kinds it understands) and,
for service-scoped kinds, by service name.  "An AQuA client uses different
gateway handlers to communicate with different server groups" (paper §2) —
which is why handlers, not gateways, own QoS state and repositories.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..net.message import Message
from ..net.transport import TransportAPI
from ..sim.kernel import Simulator

__all__ = ["Gateway", "ProtocolHandler", "GatewayError"]


class GatewayError(Exception):
    """Raised on gateway misconfiguration."""


class ProtocolHandler:
    """Base class for gateway protocol handlers.

    Subclasses declare the message kinds they accept via
    :attr:`message_kinds` and the service they are bound to via
    :attr:`service`; the gateway routes on ``(kind, service)``.
    """

    #: Message kinds this handler consumes.
    message_kinds: Tuple[str, ...] = ()
    #: Service the handler is bound to ("" = service-agnostic).
    service: str = ""

    def handle_message(self, message: Message) -> None:
        """Process one inbound message addressed to this handler."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short label for error messages."""
        return f"{type(self).__name__}({self.service})"


class Gateway:
    """Transport endpoint of one host, hosting protocol handlers."""

    def __init__(
        self,
        host: str,
        sim: Simulator,
        transport: TransportAPI,
    ) -> None:
        self.host = host
        self.sim = sim
        self.transport = transport
        self._handlers: Dict[Tuple[str, str], ProtocolHandler] = {}
        transport.bind(host, self._receive)

    # -- handler management ----------------------------------------------------
    def load_handler(self, handler: ProtocolHandler) -> None:
        """Install ``handler`` for all its declared message kinds."""
        if not handler.message_kinds:
            raise GatewayError(
                f"handler {handler.describe()} declares no message kinds"
            )
        for kind in handler.message_kinds:
            key = (kind, handler.service)
            if key in self._handlers:
                raise GatewayError(
                    f"gateway {self.host!r} already routes {key} to "
                    f"{self._handlers[key].describe()}"
                )
            self._handlers[key] = handler

    def handlers(self) -> List[ProtocolHandler]:
        """Distinct handlers currently loaded."""
        seen: List[ProtocolHandler] = []
        for handler in self._handlers.values():
            if handler not in seen:
                seen.append(handler)
        return seen

    # -- dispatch ----------------------------------------------------------
    def _receive(self, message: Message) -> None:
        payload = message.payload
        service = payload.get("service", "") if isinstance(payload, dict) else ""
        handler = self._handlers.get((message.kind, service))
        if handler is None:
            # Service-agnostic fallback route.
            handler = self._handlers.get((message.kind, ""))
        if handler is not None:
            handler.handle_message(message)

    def __repr__(self) -> str:
        return f"<Gateway host={self.host!r} handlers={len(self.handlers())}>"
