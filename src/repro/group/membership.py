"""Group membership with views.

Replicas offering the same service, and the clients talking to them, join
a named *group*.  Membership is versioned into :class:`GroupView` objects;
every change (join, leave, crash eviction) installs a new view, which
:class:`~repro.group.ensemble.GroupCommunication` announces to the members
— the contract AQuA inherits from Maestro/Ensemble and that the timing
fault handler relies on to purge crashed replicas from its information
repository (paper §5.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["GroupView", "Group", "MembershipService", "MembershipError"]


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
        Monotonically increasing version, starting at 1.
    members:
        Member names in join order.
    """

    group: str
    view_id: int
    members: Tuple[str, ...]

    def __contains__(self, member: str) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)


class Group:
    """One named group and its current view."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._members: List[str] = []
        self._view_id = 0

    # -- views ------------------------------------------------------------
    def view(self) -> GroupView:
        """The current view."""
        return GroupView(
            group=self.name, view_id=self._view_id, members=tuple(self._members)
        )

    @property
    def members(self) -> List[str]:
        """Current member names (copy)."""
        return list(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # -- changes -----------------------------------------------------------
    def join(self, member: str) -> GroupView:
        """Add ``member``; installs and returns the new view."""
        if member in self._members:
            raise MembershipError(
                f"{member!r} is already a member of group {self.name!r}"
            )
        return self._install(self._members + [member])

    def leave(self, member: str) -> GroupView:
        """Remove ``member``; installs and returns the new view."""
        if member not in self._members:
            raise MembershipError(
                f"{member!r} is not a member of group {self.name!r}"
            )
        return self._install([m for m in self._members if m != member])

    def evict(self, member: str) -> Optional[GroupView]:
        """Like :meth:`leave` but idempotent (used on crash detection)."""
        if member not in self._members:
            return None
        return self.leave(member)

    def _install(self, members: List[str]) -> GroupView:
        self._members = members
        self._view_id += 1
        return self.view()

    def __repr__(self) -> str:
        return (
            f"<Group {self.name!r} view={self._view_id} "
            f"members={len(self._members)}>"
        )


class MembershipService:
    """Registry of all groups in the system."""

    def __init__(self) -> None:
        self._groups: Dict[str, Group] = {}

    def create(self, name: str) -> Group:
        """Create a new empty group (error if the name is taken)."""
        if name in self._groups:
            raise MembershipError(f"group {name!r} already exists")
        group = Group(name)
        self._groups[name] = group
        return group

    def get(self, name: str) -> Group:
        """Look up an existing group."""
        try:
            return self._groups[name]
        except KeyError:
            raise MembershipError(f"no such group {name!r}") from None

    def get_or_create(self, name: str) -> Group:
        """Look up ``name``, creating the group if needed."""
        group = self._groups.get(name)
        if group is None:
            group = self.create(name)
        return group

    def groups_of(self, member: str) -> List[Group]:
        """All groups the member currently belongs to."""
        return [g for g in self._groups.values() if member in g]

    def evict_everywhere(self, member: str) -> List[GroupView]:
        """Remove a crashed member from every group it belongs to."""
        views = []
        for group in self.groups_of(member):
            view = group.evict(member)
            if view is not None:
                views.append(view)
        return views

    def __repr__(self) -> str:
        return f"<MembershipService groups={len(self._groups)}>"
