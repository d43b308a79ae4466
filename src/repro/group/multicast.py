"""Member-list multicast on top of a group.

The paper's timing fault handler uses "a multicast group ... similar to a
connection group in AQuA except that it allows a message to be sent to a
specified list of members in a group rather than be broadcast to all group
members" (§5.4).  :class:`MulticastGroup` provides exactly that: sends go
to an explicit subset of the current view (default: everyone), and the
per-member overhead of the LAN model is paid for the subset actually
addressed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..net.message import Message
from ..net.transport import Transport
from .membership import Group, MembershipError

__all__ = ["MulticastGroup"]


class MulticastGroup:
    """Send-to-subset multicast bound to one group and one transport."""

    def __init__(self, group: Group, transport: Transport) -> None:
        self.group = group
        self.transport = transport

    def members(self) -> List[str]:
        """Members of the current view."""
        return self.group.members

    def send(
        self,
        message: Message,
        members: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Multicast ``message`` to ``members`` (default: the whole view).

        Members named but no longer in the current view are skipped — a
        racing eviction must not fail the whole send.  Returns the member
        names actually addressed.

        Raises :class:`MembershipError` if no named member remains in the
        view (the caller's view of the group is entirely stale).
        """
        view_members = set(self.group.members)
        if members is None:
            targets = self.group.members
        else:
            targets = [m for m in members if m in view_members]
        if not targets:
            raise MembershipError(
                f"no live destinations in group {self.group.name!r} "
                f"(requested {list(members) if members is not None else 'all'})"
            )
        self.transport.multicast(message, targets)
        return targets

    def __repr__(self) -> str:
        return f"<MulticastGroup {self.group.name!r} members={len(self.group.members)}>"
