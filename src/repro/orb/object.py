"""Object model of the simulated ORB.

CORBA gives AQuA three things our reproduction needs: named service
interfaces with methods, servants implementing them, and object references
through which clients invoke methods without knowing about replication.
This module provides those, without wire-level encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "MethodSignature",
    "ServiceInterface",
    "Servant",
    "MethodRequest",
]


@dataclass(frozen=True)
class MethodSignature:
    """One method of a service interface.

    ``request_bytes`` / ``reply_bytes`` drive the marshalling and
    transmission cost models (the paper measured a ≈3.5 ms floor for a
    "minimum-sized request having negligible service time").
    """

    name: str
    request_bytes: int = 128
    reply_bytes: int = 128

    def __post_init__(self) -> None:
        if self.request_bytes < 0 or self.reply_bytes < 0:
            raise ValueError("message sizes must be >= 0")


class ServiceInterface:
    """A named collection of method signatures (an IDL interface analog)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._methods: Dict[str, MethodSignature] = {}

    def add_method(self, signature: MethodSignature) -> "ServiceInterface":
        """Add a method; returns self for chaining."""
        if signature.name in self._methods:
            raise ValueError(
                f"method {signature.name!r} already on interface {self.name!r}"
            )
        self._methods[signature.name] = signature
        return self

    def method(self, name: str) -> MethodSignature:
        """Look up a method signature by name."""
        try:
            return self._methods[name]
        except KeyError:
            raise KeyError(
                f"interface {self.name!r} has no method {name!r}"
            ) from None

    def methods(self) -> Tuple[MethodSignature, ...]:
        """All methods in declaration order."""
        return tuple(self._methods.values())

    def __contains__(self, name: str) -> bool:
        return name in self._methods

    def __repr__(self) -> str:
        return f"<ServiceInterface {self.name!r} methods={sorted(self._methods)}>"


@dataclass(frozen=True)
class MethodRequest:
    """A client's intent to invoke ``method`` on ``service`` with ``args``."""

    service: str
    method: str
    args: Tuple[Any, ...] = ()


class Servant:
    """Base class for server-side application objects.

    Subclasses implement the service logic by defining a method per
    interface operation, or by overriding :meth:`dispatch`.  The *duration*
    of the computation is modeled by the replica's service-time
    distribution (``repro.replica.load``); servants only compute reply
    *values* — the stateless-service assumption of the paper means any
    replica's reply is as good as any other's.
    """

    def __init__(self, interface: ServiceInterface) -> None:
        self.interface = interface

    def dispatch(self, method: str, args: Tuple[Any, ...]) -> Any:
        """Execute ``method`` with ``args`` and return the reply value."""
        if method not in self.interface:
            raise KeyError(
                f"servant for {self.interface.name!r} has no method {method!r}"
            )
        handler: Optional[Callable[..., Any]] = getattr(self, method, None)
        if handler is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not implement {method!r}"
            )
        return handler(*args)
