"""Marshalling cost model (IIOP analog).

In AQuA every request crosses two representation boundaries: the gateway
marshals the intercepted CORBA call into a Maestro message, and the server
gateway demarshals it back (paper §5.1, Stage 2/3).  We model this as a CPU
cost charged at the marshalling host, proportional to message size, plus
the resulting wire size.  The numbers are small (sub-millisecond) but they
are what gives the ≈3.5 ms response-time floor reported in §6 together with
the LAN stack cost.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple

from .object import MethodRequest, MethodSignature

__all__ = ["MarshallingModel", "MarshalledCall", "MarshalledReply"]


class MarshalledCall(NamedTuple):
    """A method request encoded for the wire."""

    request: MethodRequest
    size_bytes: int


class MarshalledReply(NamedTuple):
    """A method reply encoded for the wire."""

    value: Any
    size_bytes: int


class MarshallingModel:
    """Charges CPU time for marshal/demarshal and computes wire sizes.

    Parameters
    ----------
    base_ms:
        Fixed per-operation cost.
    per_kb_ms:
        Additional cost per kilobyte of encoded data.
    envelope_bytes:
        Header overhead added to every encoded message.
    """

    def __init__(
        self,
        base_ms: float = 0.15,
        per_kb_ms: float = 0.05,
        envelope_bytes: int = 64,
    ) -> None:
        if base_ms < 0 or per_kb_ms < 0 or envelope_bytes < 0:
            raise ValueError("marshalling parameters must be >= 0")
        self.base_ms = float(base_ms)
        self.per_kb_ms = float(per_kb_ms)
        self.envelope_bytes = int(envelope_bytes)

    def _cost(self, size_bytes: int) -> float:
        return self.base_ms + self.per_kb_ms * (size_bytes / 1024.0)

    def marshal_request(
        self, request: MethodRequest, signature: MethodSignature
    ) -> Tuple[MarshalledCall, float]:
        """Encode a request; returns ``(encoded, cpu_cost_ms)``."""
        size = signature.request_bytes + self.envelope_bytes
        return MarshalledCall(request=request, size_bytes=size), self._cost(size)

    def demarshal_request(self, call: MarshalledCall) -> Tuple[MethodRequest, float]:
        """Decode a request; returns ``(request, cpu_cost_ms)``."""
        return call.request, self._cost(call.size_bytes)

    def marshal_reply(
        self, value: Any, signature: MethodSignature
    ) -> Tuple[MarshalledReply, float]:
        """Encode a reply; returns ``(encoded, cpu_cost_ms)``."""
        size = signature.reply_bytes + self.envelope_bytes
        return MarshalledReply(value=value, size_bytes=size), self._cost(size)

    def demarshal_reply(self, reply: MarshalledReply) -> Tuple[Any, float]:
        """Decode a reply; returns ``(value, cpu_cost_ms)``."""
        return reply.value, self._cost(reply.size_bytes)

    def __repr__(self) -> str:
        return (
            f"<MarshallingModel base={self.base_ms}ms "
            f"per_kb={self.per_kb_ms}ms env={self.envelope_bytes}B>"
        )
