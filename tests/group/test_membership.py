"""Unit tests for group membership and views."""

import pytest

from repro.group.membership import Group, MembershipError, MembershipService


class TestGroup:
    def test_new_group_has_empty_view_zero(self):
        group = Group("svc")
        view = group.view()
        assert view.view_id == 0
        assert len(view) == 0

    def test_join_installs_new_view(self):
        group = Group("svc")
        view = group.join("r1")
        assert view.view_id == 1
        assert "r1" in view

    def test_join_preserves_order(self):
        group = Group("svc")
        group.join("r1")
        group.join("r2")
        assert group.view().members == ("r1", "r2")

    def test_duplicate_join_rejected(self):
        group = Group("svc")
        group.join("r1")
        with pytest.raises(MembershipError):
            group.join("r1")

    def test_leave_removes_member(self):
        group = Group("svc")
        group.join("r1")
        group.join("r2")
        view = group.leave("r1")
        assert view.members == ("r2",)

    def test_leave_unknown_member_rejected(self):
        group = Group("svc")
        with pytest.raises(MembershipError):
            group.leave("ghost")

    def test_evict_is_idempotent(self):
        group = Group("svc")
        group.join("r1")
        assert group.evict("r1") is not None
        assert group.evict("r1") is None

    def test_view_ids_increase_monotonically(self):
        group = Group("svc")
        before = group.view()
        ids = [group.join("r1").view_id, group.join("r2").view_id,
               group.leave("r1").view_id]
        assert [before.view_id, *ids] == [0, 1, 2, 3]
        assert group.view().view_id == 3

    def test_views_are_immutable_snapshots(self):
        group = Group("svc")
        view = group.join("r1")
        group.join("r2")
        assert view.members == ("r1",)


class TestMembershipService:
    def test_create_and_get(self):
        service = MembershipService()
        created = service.create("svc")
        assert service.get("svc") is created

    def test_duplicate_create_rejected(self):
        service = MembershipService()
        service.create("svc")
        with pytest.raises(MembershipError):
            service.create("svc")

    def test_get_unknown_raises(self):
        with pytest.raises(MembershipError):
            MembershipService().get("nope")

    def test_get_or_create(self):
        service = MembershipService()
        group = service.get_or_create("svc")
        assert service.get_or_create("svc") is group

    def test_groups_of_member(self):
        service = MembershipService()
        service.get_or_create("a").join("r1")
        service.get_or_create("b").join("r1")
        service.get_or_create("c").join("r2")
        assert sorted(g.name for g in service.groups_of("r1")) == ["a", "b"]

    def test_evict_everywhere(self):
        service = MembershipService()
        service.get_or_create("a").join("r1")
        service.get_or_create("b").join("r1")
        views = service.evict_everywhere("r1")
        assert len(views) == 2
        assert all("r1" not in v for v in views)
