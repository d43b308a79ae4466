"""Message types carried by the simulated LAN.

Messages are immutable envelopes: a payload plus addressing and accounting
metadata.  The gateway layers (``repro.gateway``) put marshalled CORBA-style
requests/replies inside; the group layer (``repro.group``) wraps them again
for multicast delivery — mirroring the AQuA / Maestro-Ensemble layering of
the paper without bit-level encoding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Message", "next_message_id", "reset_message_ids"]

_message_counter = itertools.count(1)


def next_message_id() -> int:
    """Process-wide unique message identifier."""
    return next(_message_counter)


def reset_message_ids() -> None:
    """Restart the msg_id sequence from 1.

    Message ids only need to be unique within one simulation; batch
    runners (the chaos campaign) reset between scenarios so any id that
    surfaces in a report is independent of which process — and how many
    prior scenarios — produced it.
    """
    global _message_counter
    _message_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Message:
    """An envelope travelling between two hosts.

    Slotted: simulations at fleet scale allocate one envelope per hop,
    so instances carry no per-object ``__dict__``.

    Attributes
    ----------
    sender:
        Name of the sending host.
    destination:
        Name of the receiving host.
    kind:
        Machine-readable type tag, e.g. ``"request"``, ``"reply"``,
        ``"perf-update"``, ``"membership"``.
    payload:
        Arbitrary structured content.  By convention a dict.
    size_bytes:
        Simulated wire size; feeds the transmission-delay model.
    msg_id:
        Unique id assigned at construction.
    correlation_id:
        Id tying replies to their request (0 = uncorrelated).
    """

    sender: str
    destination: str
    kind: str
    payload: Any = None
    size_bytes: int = 256
    msg_id: int = field(default_factory=next_message_id)
    correlation_id: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")

    def with_destination(self, destination: str) -> "Message":
        """A copy addressed to ``destination`` (same msg_id: one multicast)."""
        return Message(
            self.sender, destination, self.kind, self.payload, self.size_bytes,
            self.msg_id, self.correlation_id,
        )

    def describe(self) -> Dict[str, Any]:
        """Compact dict for tracing."""
        return {
            "msg_id": self.msg_id,
            "msg_kind": self.kind,
            "from": self.sender,
            "to": self.destination,
            "size": self.size_bytes,
            "corr": self.correlation_id,
        }
