"""Unit tests for the group-communication facade."""

import pytest

from repro.group.ensemble import NOTIFY_DELAY_MS, GroupCommunication
from repro.group.failure_detector import FailureDetector


@pytest.fixture
def gc(sim, lan, transport):
    detector = FailureDetector(sim, lan, poll_interval_ms=10.0)
    return GroupCommunication(sim, lan, transport, failure_detector=detector)


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


def test_unwatched_member_is_not_evicted_on_crash(sim, lan, gc):
    gc.join("svc", "client-1", watch=False)
    lan.mark_down("client-1")
    sim.run(until=500.0)
    assert "client-1" in gc.view("svc")


def test_notifications_skip_crashed_recipients(sim, lan, gc):
    gc.join("svc", "server-1")
    views = []
    gc.on_view_change("svc", "client-1", lambda v: views.append(v))
    lan.mark_down("client-1")
    gc.join("svc", "server-2")
    sim.run(until=100.0)
    assert views == []


def test_multicast_group_tracks_membership(sim, lan, gc):
    gc.join("svc", "server-1")
    mgroup = gc.multicast_group("svc")
    assert mgroup.members() == ["server-1"]
    gc.join("svc", "server-2")
    assert sorted(mgroup.members()) == ["server-1", "server-2"]


def test_eviction_covers_all_groups_of_member(sim, lan, gc):
    gc.join("svc-a", "server-1")
    gc.join("svc-b", "server-1")
    lan.mark_down("server-1")
    sim.run(until=500.0)
    assert "server-1" not in gc.view("svc-a")
    assert "server-1" not in gc.view("svc-b")
