"""Unit tests for group communication: views, multicast and notifications."""

import pytest

from repro.group.ensemble import NOTIFY_DELAY_MS, GroupCommunication, MembershipError
from repro.group.failure_detector import FailureDetector
from repro.net.message import Message


@pytest.fixture
def gc(sim, lan, transport):
    detector = FailureDetector(sim, lan, poll_interval_ms=10.0)
    return GroupCommunication(sim, lan, transport, detector)


def _msg():
    return Message(sender="client-1", destination="", kind="request", payload={})


class TestGroup:
    def test_new_group_has_empty_view_zero(self, gc):
        view = gc.view("svc")
        assert view.view_id == 0
        assert view.members == ()

    def test_join_installs_new_view(self, gc):
        view = gc.join("svc", "server-1")
        assert view.view_id == 1
        assert "server-1" in view

    def test_join_preserves_order(self, gc):
        gc.join("svc", "server-1")
        gc.join("svc", "server-2")
        assert gc.view("svc").members == ("server-1", "server-2")

    def test_duplicate_join_rejected(self, gc):
        gc.join("svc", "server-1")
        with pytest.raises(MembershipError):
            gc.join("svc", "server-1")

    def test_leave_removes_member(self, gc):
        gc.join("svc", "server-1")
        gc.join("svc", "server-2")
        view = gc.leave("svc", "server-1")
        assert view.members == ("server-2",)

    def test_leave_unknown_member_rejected(self, gc):
        with pytest.raises(MembershipError):
            gc.leave("svc", "ghost")

    def test_view_ids_increase_monotonically(self, gc):
        before = gc.view("svc")
        ids = [gc.join("svc", "server-1").view_id, gc.join("svc", "server-2").view_id,
               gc.leave("svc", "server-1").view_id]
        assert [before.view_id, *ids] == [0, 1, 2, 3]
        assert gc.view("svc").view_id == 3

    def test_views_are_immutable_snapshots(self, gc):
        view = gc.join("svc", "server-1")
        gc.join("svc", "server-2")
        assert view.members == ("server-1",)


def test_join_creates_group_and_installs_view(gc):
    view = gc.join("svc", "server-1")
    assert view.members == ("server-1",)
    assert gc.view("svc").view_id == 1


def test_leave_updates_view(gc):
    gc.join("svc", "server-1")
    gc.join("svc", "server-2")
    view = gc.leave("svc", "server-1")
    assert view.members == ("server-2",)


def test_view_change_notifications_are_delayed(sim, gc):
    gc.join("svc", "server-1")
    views = []
    gc.on_view_change("svc", "client-1", lambda v: views.append((sim.now, v)))
    gc.join("svc", "server-2")
    assert views == []  # not synchronous
    join_time = sim.now
    sim.run()
    assert len(views) == 1
    arrived_at, view = views[0]
    assert arrived_at == pytest.approx(join_time + NOTIFY_DELAY_MS)
    assert view.members == ("server-1", "server-2")


def test_crashed_member_is_evicted_and_others_notified(sim, lan, gc):
    gc.join("svc", "server-1")
    gc.join("svc", "server-2")
    views = []
    gc.on_view_change("svc", "client-1", lambda v: views.append(v))
    lan.mark_down("server-2")
    sim.run(until=500.0)
    assert gc.view("svc").members == ("server-1",)
    assert views and views[-1].members == ("server-1",)


def test_notifications_skip_crashed_recipients(sim, lan, gc):
    gc.join("svc", "server-1")
    views = []
    gc.on_view_change("svc", "client-1", lambda v: views.append(v))
    lan.mark_down("client-1")
    gc.join("svc", "server-2")
    sim.run(until=100.0)
    assert views == []


def test_multicast_group_tracks_membership(gc):
    gc.join("svc", "server-1")
    assert gc.members("svc") == ["server-1"]
    gc.join("svc", "server-2")
    assert gc.members("svc") == ["server-1", "server-2"]


def test_members_reflects_current_view(servers):
    assert servers.members("svc") == ["server-1", "server-2"]
    servers.leave("svc", "server-1")
    assert servers.members("svc") == ["server-2"]


def test_eviction_covers_all_groups_of_member(sim, lan, gc):
    gc.join("svc-a", "server-1")
    gc.join("svc-b", "server-1")
    lan.mark_down("server-1")
    sim.run(until=500.0)
    assert "server-1" not in gc.view("svc-a")
    assert "server-1" not in gc.view("svc-b")


def test_a_crash_announces_each_group_in_first_use_order(sim, lan, gc):
    # svc-b is used first (a member's view of it), svc-a is joined first.
    seen = []
    gc.on_view_change("svc-b", "client-1", lambda v: seen.append(("b", v.view_id)))
    gc.members("svc-b")
    gc.join("svc-a", "server-1")
    gc.join("svc-b", "server-1")
    gc.on_view_change("svc-a", "client-1", lambda v: seen.append(("a1", v.view_id)))
    gc.on_view_change("svc-a", "client-2", lambda v: seen.append(("a2", v.view_id)))
    sim.run(until=5.0)
    seen.clear()
    lan.mark_down("server-1")
    sim.run(until=500.0)
    assert seen == [("b", 2), ("a1", 2), ("a2", 2)]


# -- send-to-subset multicast ---------------------------------------------------

@pytest.fixture
def servers(gc):
    gc.join("svc", "server-1")
    gc.join("svc", "server-2")
    return gc


def test_default_send_reaches_whole_view(sim, transport, servers):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    transport.bind("server-2", lambda m: inbox.append("s2"))
    targets = servers.send("svc", _msg())
    sim.run()
    assert targets == ["server-1", "server-2"]
    assert sorted(inbox) == ["s1", "s2"]


def test_subset_send_addresses_only_named_members(sim, transport, servers):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    transport.bind("server-2", lambda m: inbox.append("s2"))
    targets = servers.send("svc", _msg(), members=["server-2"])
    sim.run()
    assert targets == ["server-2"]
    assert inbox == ["s2"]


def test_stale_members_are_skipped(sim, transport, servers):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    servers.leave("svc", "server-2")
    targets = servers.send("svc", _msg(), members=["server-1", "server-2"])
    sim.run()
    assert targets == ["server-1"]
    assert inbox == ["s1"]


def test_entirely_stale_subset_raises(servers):
    servers.leave("svc", "server-1")
    servers.leave("svc", "server-2")
    with pytest.raises(MembershipError):
        servers.send("svc", _msg())
    with pytest.raises(MembershipError):
        servers.send("svc", _msg(), members=["server-1"])
