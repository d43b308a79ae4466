"""Message types carried by the simulated LAN.

Messages are immutable envelopes: a payload plus addressing and accounting
metadata.  The gateway layers (``repro.gateway``) put marshalled CORBA-style
requests/replies inside; the group layer (``repro.group``) wraps them again
for multicast delivery — mirroring the AQuA / Maestro-Ensemble layering of
the paper without bit-level encoding.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional

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


class _Envelope(NamedTuple):
    sender: str  # sending host
    destination: str  # receiving host
    kind: str  # type tag, e.g. "tf-request", "tf-perf"
    payload: Any  # structured content, by convention a dict
    size_bytes: int  # simulated wire size; feeds the transmission delay
    msg_id: int  # unique per envelope; the copies of a multicast share it
    correlation_id: int  # the request a reply answers (0: none)


class Message(_Envelope):
    """An envelope travelling between two hosts.

    An immutable tuple record: a simulation builds one per hop, and a
    tuple is the cheapest object Python builds and reads.  ``msg_id`` is
    drawn from :func:`next_message_id` unless given, so a pickled
    envelope keeps its id.
    """

    __slots__ = ()

    def __new__(
        cls, sender: str, destination: str, kind: str, payload: Any = None,
        size_bytes: int = 256, msg_id: Optional[int] = None, correlation_id: int = 0,
    ) -> "Message":
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        if msg_id is None:
            msg_id = next_message_id()
        row = (sender, destination, kind, payload, size_bytes, msg_id, correlation_id)
        return tuple.__new__(cls, row)

    def with_destination(self, destination: str) -> "Message":
        """A copy addressed to ``destination`` (same msg_id: one multicast)."""
        return tuple.__new__(Message, (self.sender, destination, *self[2:]))
