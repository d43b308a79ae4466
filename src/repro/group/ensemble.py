"""Group communication: versioned membership, crash eviction and multicast.

:class:`GroupCommunication` is our Maestro/Ensemble analog, and the whole
contract the timing fault handler relies on (paper §5.4): processes join
named groups, every change installs a new :class:`GroupView`, messages go
to "a specified list of members in a group rather than be broadcast to
all group members", and *membership change notifications* arrive with a
realistic delay after a member crashes — "When a member of a multicast
group crashes, Maestro-Ensemble detects the failure and notifies all the
group members about the change in the membership."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..net.lan import LanModel
from ..net.message import Message
from ..net.transport import TransportAPI
from ..sim.kernel import Simulator
from .failure_detector import FailureDetector

__all__ = ["NOTIFY_DELAY_MS", "GroupCommunication", "GroupView", "MembershipError"]

#: Delay between a membership change being installed and each member
#: learning about it (propagation of the view-change protocol).
NOTIFY_DELAY_MS = 1.0


class MembershipError(Exception):
    """Raised on invalid membership operations."""


@dataclass(frozen=True)
class GroupView:
    """An immutable snapshot of a group's membership.

    Attributes
    ----------
    group:
        Group name.
    view_id:
        Monotonically increasing version; 1 is the first installed view.
    members:
        Member names in join order.
    """

    group: str
    view_id: int
    members: Tuple[str, ...]

    def __contains__(self, member: str) -> bool:
        return member in self.members


ViewCallback = Callable[[GroupView], None]


class GroupCommunication:
    """System-wide group communication service.

    Groups are created on first use and kept in that order, which is the
    order a crash announces its evictions in.  Every joined member is
    watched by ``failure_detector``, whose crash declarations evict it.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        transport: TransportAPI,
        failure_detector: FailureDetector,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.transport = transport
        self.failure_detector = failure_detector
        failure_detector.on_crash(self._on_crash)
        self._views: Dict[str, GroupView] = {}
        # Member sets of the current views, for the per-send membership test.
        self._member_sets: Dict[str, FrozenSet[str]] = {}
        # group name -> (member, view-change callback), in registration order
        self._view_callbacks: Dict[str, List[Tuple[str, ViewCallback]]] = {}

    # -- views ------------------------------------------------------------------
    def view(self, group: str) -> GroupView:
        """Current view of ``group`` (an empty view 0 before any join)."""
        view = self._views.get(group)
        if view is None:
            view = self._views[group] = GroupView(group, 0, ())
            self._member_sets[group] = frozenset()
        return view

    def members(self, group: str) -> List[str]:
        """Members of ``group``'s current view, in join order."""
        return list(self.view(group).members)

    def _install(self, old: GroupView, members: Tuple[str, ...]) -> GroupView:
        view = GroupView(old.group, old.view_id + 1, members)
        self._views[old.group] = view
        self._member_sets[old.group] = frozenset(members)
        return view

    # -- changes ----------------------------------------------------------------
    def join(self, group: str, member: str) -> GroupView:
        """Add ``member`` (a host name) to ``group`` and watch it for crashes."""
        old = self.view(group)
        if member in self._member_sets[group]:
            raise MembershipError(f"{member!r} is already a member of group {group!r}")
        view = self._install(old, old.members + (member,))
        self.failure_detector.watch(member)
        self._announce(view)
        return view

    def leave(self, group: str, member: str) -> GroupView:
        """Gracefully remove ``member`` from ``group``."""
        view = self._remove(group, member)
        self._announce(view)
        return view

    def _remove(self, group: str, member: str) -> GroupView:
        old = self.view(group)
        if member not in self._member_sets[group]:
            raise MembershipError(f"{member!r} is not a member of group {group!r}")
        return self._install(old, tuple(m for m in old.members if m != member))

    # -- multicast --------------------------------------------------------------
    def send(
        self, group: str, message: Message, members: Optional[Sequence[str]] = None
    ) -> List[str]:
        """Multicast ``message`` to ``members`` of ``group`` (default: the view).

        Members named but no longer in the current view are skipped — a
        racing eviction must not fail the whole send.  Returns the member
        names actually addressed.

        Raises :class:`MembershipError` if no named member remains in the
        view (the caller's view of the group is entirely stale).
        """
        if members is None:
            targets = self.members(group)
        else:
            live = self._member_sets.get(group, frozenset())
            targets = [m for m in members if m in live]
        if not targets:
            raise MembershipError(
                f"no live destinations in group {group!r} "
                f"(requested {list(members) if members is not None else 'all'})"
            )
        self.transport.multicast(message, targets)
        return targets

    # -- notifications ----------------------------------------------------------
    def on_view_change(self, group: str, member: str, callback: ViewCallback) -> None:
        """Deliver future views of ``group`` to ``member``'s callback.

        Notifications arrive :data:`NOTIFY_DELAY_MS` after the view is
        installed, and only if the member host is still up at that time.
        """
        self._view_callbacks.setdefault(group, []).append((member, callback))

    def _announce(self, view: GroupView) -> None:
        for member, callback in list(self._view_callbacks.get(view.group, ())):
            self.sim.call_in(
                NOTIFY_DELAY_MS, self._make_notifier(member, callback, view)
            )

    def _make_notifier(
        self, member: str, callback: ViewCallback, view: GroupView
    ) -> Callable[[], None]:
        def notify() -> None:
            if self.lan.has_host(member) and not self.lan.is_up(member):
                return  # crashed members receive nothing
            callback(view)

        return notify

    # -- crash handling ---------------------------------------------------------
    def _on_crash(self, host_name: str) -> None:
        for group, live in list(self._member_sets.items()):
            if host_name in live:
                self._announce(self._remove(group, host_name))

    def __repr__(self) -> str:
        return f"<GroupCommunication groups={len(self._views)}>"
