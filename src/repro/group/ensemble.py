"""Facade tying membership, failure detection and multicast together.

:class:`GroupCommunication` is our Maestro/Ensemble analog: processes join
named groups, send to member subsets, and receive *membership change
notifications* with a realistic delay after a member crashes.  The paper
relies on these notifications to drop crashed replicas from each client's
information repository (§5.4): "When a member of a multicast group crashes,
Maestro-Ensemble detects the failure and notifies all the group members
about the change in the membership."
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.lan import LanModel
from ..net.transport import Transport
from ..sim.kernel import Simulator
from .failure_detector import FailureDetector
from .membership import GroupView, MembershipService
from .multicast import MulticastGroup

__all__ = ["NOTIFY_DELAY_MS", "GroupCommunication"]

#: Delay between a membership change being installed and each member
#: learning about it (propagation of the view-change protocol).
NOTIFY_DELAY_MS = 1.0

ViewCallback = Callable[[GroupView], None]


class GroupCommunication:
    """System-wide group communication service.

    Parameters
    ----------
    sim, lan, transport:
        Simulation substrate.
    failure_detector:
        Detector used to evict crashed members; a default one is built if
        not supplied.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: LanModel,
        transport: Transport,
        failure_detector: Optional[FailureDetector] = None,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.transport = transport
        self.membership = MembershipService()
        self.failure_detector = failure_detector or FailureDetector(sim, lan)
        self.failure_detector.on_crash(self._on_crash)
        # (group name, member name) -> view-change callbacks
        self._view_callbacks: Dict[Tuple[str, str], List[ViewCallback]] = {}
        self._multicast_groups: Dict[str, MulticastGroup] = {}

    # -- group lifecycle ------------------------------------------------------
    def join(self, group_name: str, member: str, watch: bool = True) -> GroupView:
        """Add ``member`` (a host name) to ``group_name``.

        ``watch=True`` (the default for server replicas) also puts the
        member under failure detection; clients typically join unwatched.
        """
        group = self.membership.get_or_create(group_name)
        view = group.join(member)
        if watch:
            self.failure_detector.watch(member)
        self._announce(group_name, view)
        return view

    def leave(self, group_name: str, member: str) -> GroupView:
        """Gracefully remove ``member`` from ``group_name``."""
        group = self.membership.get(group_name)
        view = group.leave(member)
        self._announce(group_name, view)
        return view

    def multicast_group(self, group_name: str) -> MulticastGroup:
        """The send-to-subset endpoint for ``group_name``."""
        mgroup = self._multicast_groups.get(group_name)
        if mgroup is None:
            group = self.membership.get_or_create(group_name)
            mgroup = MulticastGroup(group, self.transport)
            self._multicast_groups[group_name] = mgroup
        return mgroup

    def view(self, group_name: str) -> GroupView:
        """Current view of ``group_name``."""
        return self.membership.get(group_name).view()

    # -- notifications --------------------------------------------------------
    def on_view_change(
        self, group_name: str, member: str, callback: ViewCallback
    ) -> None:
        """Deliver future views of ``group_name`` to ``member``'s callback.

        Notifications arrive :data:`NOTIFY_DELAY_MS` after the view is
        installed, and only if the member host is still up at that time.
        """
        key = (group_name, member)
        self._view_callbacks.setdefault(key, []).append(callback)

    def _announce(self, group_name: str, view: GroupView) -> None:
        for (name, member), callbacks in list(self._view_callbacks.items()):
            if name != group_name:
                continue
            for callback in list(callbacks):
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

    # -- crash handling -------------------------------------------------------
    def _on_crash(self, host_name: str) -> None:
        views = self.membership.evict_everywhere(host_name)
        for view in views:
            self._announce(view.group, view)

    def __repr__(self) -> str:
        return (
            f"<GroupCommunication groups={len(self.membership._groups)}>"
        )
