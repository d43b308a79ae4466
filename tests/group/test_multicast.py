"""Unit tests for send-to-subset multicast."""

import pytest

from repro.group.membership import Group, MembershipError
from repro.group.multicast import MulticastGroup
from repro.net.message import Message


@pytest.fixture
def mgroup(transport):
    group = Group("svc")
    group.join("server-1")
    group.join("server-2")
    return MulticastGroup(group, transport)


def _msg():
    return Message(sender="client-1", destination="", kind="request", payload={})


def test_default_send_reaches_whole_view(sim, transport, mgroup):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    transport.bind("server-2", lambda m: inbox.append("s2"))
    targets = mgroup.send(_msg())
    sim.run()
    assert sorted(targets) == ["server-1", "server-2"]
    assert sorted(inbox) == ["s1", "s2"]


def test_subset_send_addresses_only_named_members(sim, transport, mgroup):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    transport.bind("server-2", lambda m: inbox.append("s2"))
    targets = mgroup.send(_msg(), members=["server-2"])
    sim.run()
    assert targets == ["server-2"]
    assert inbox == ["s2"]


def test_stale_members_are_skipped(sim, transport, mgroup):
    inbox = []
    transport.bind("server-1", lambda m: inbox.append("s1"))
    mgroup.group.leave("server-2")
    targets = mgroup.send(_msg(), members=["server-1", "server-2"])
    sim.run()
    assert targets == ["server-1"]
    assert inbox == ["s1"]


def test_entirely_stale_subset_raises(mgroup):
    mgroup.group.leave("server-1")
    mgroup.group.leave("server-2")
    with pytest.raises(MembershipError):
        mgroup.send(_msg())


def test_members_reflects_current_view(mgroup):
    assert mgroup.members() == ["server-1", "server-2"]
    mgroup.group.leave("server-1")
    assert mgroup.members() == ["server-2"]
