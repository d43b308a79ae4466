"""Membership, failure detection and multicast under network partitions.

ISSUE 9 makes partitions first-class: the failure detector can observe
from a *vantage point* (so a severed-but-alive host is evicted like a
crashed one), a heal is a fresh sighting (stale suspicion must not
survive a cut), and the group layer's views re-converge after the heal
without duplicate view deliveries.  Multicast keeps its exactly-once-
per-destination contract under one-way loss and reordering.
"""

import pytest

from repro.faultinject import (
    DelayRule,
    FaultSchedule,
    FaultyTransport,
    PartitionFault,
)
from repro.group.failure_detector import FailureDetector
from repro.group.membership import Group, MembershipError
from repro.group.multicast import MulticastGroup
from repro.net.message import Message
from repro.rng import RNGManager
from repro.workload.ministack import SERVICE, MiniStack

OBSERVER = "client-1"


def _vantage_detector(sim, lan, confirm_polls=2):
    detector = FailureDetector(sim, lan, poll_interval_ms=10.0)
    detector.confirm_polls = confirm_polls
    detector.vantage = OBSERVER
    return detector


class TestVantageDetection:
    def test_symmetric_cut_declares_a_live_host(self, sim, lan):
        detector = _vantage_detector(sim, lan)
        detector.watch("server-1")
        sim.call_in(25.0, lambda: lan.sever_link(OBSERVER, "server-1"))
        sim.call_in(25.0, lambda: lan.sever_link("server-1", OBSERVER))
        sim.run(until=100.0)
        assert lan.is_up("server-1")  # alive — just unreachable
        assert detector.is_declared_crashed("server-1")

    def test_one_way_reply_loss_is_observed_down(self, sim, lan):
        # Probes arrive but answers die: the detector cannot tell the
        # difference, so a one-way cut still samples as down.
        detector = _vantage_detector(sim, lan)
        detector.watch("server-1")
        sim.call_in(25.0, lambda: lan.sever_link("server-1", OBSERVER))
        sim.run(until=100.0)
        assert detector.is_declared_crashed("server-1")

    def test_legacy_detector_ignores_partitions(self, sim, lan):
        detector = FailureDetector(sim, lan, poll_interval_ms=10.0)
        detector.watch("server-1")
        lan.sever_link(OBSERVER, "server-1")
        lan.sever_link("server-1", OBSERVER)
        sim.run(until=200.0)
        assert not detector.is_declared_crashed("server-1")

    def test_vantage_host_observes_itself_up(self, sim, lan):
        detector = _vantage_detector(sim, lan)
        detector.watch(OBSERVER)
        lan.sever_link(OBSERVER, "server-1")
        sim.run(until=100.0)
        assert not detector.is_declared_crashed(OBSERVER)


class TestStaleSuspicionRegression:
    """A heal is a fresh sighting (ISSUE 9 satellite regression)."""

    def _run_blip_then_cut(self, sim, lan, sight_on_heal):
        # Polls land at 10, 20, 30, ...  A cut over [5, 25) yields two
        # down samples; the link then heals for one instant and is cut
        # again at 26, so polls from 30 on sample down once more.
        detector = _vantage_detector(sim, lan, confirm_polls=3)
        detector.watch("server-1")
        sim.call_in(5.0, lambda: lan.sever_link("server-1", OBSERVER))

        def heal():
            lan.heal_link("server-1", OBSERVER)
            if sight_on_heal:
                detector.sight("server-1")

        sim.call_in(25.0, heal)
        sim.call_in(26.0, lambda: lan.sever_link("server-1", OBSERVER))
        return detector

    def test_sighting_resets_the_consecutive_down_count(self, sim, lan):
        detector = self._run_blip_then_cut(sim, lan, sight_on_heal=True)
        sim.run(until=45.0)
        # Two stale samples plus one fresh one must NOT declare: the
        # detector promised three *consecutive* down observations.
        assert not detector.is_declared_crashed("server-1")
        sim.run(until=65.0)
        # ... but three fresh ones (30, 40, 50) do.
        assert detector.is_declared_crashed("server-1")

    def test_without_the_sighting_suspicion_leaks_across_the_heal(
        self, sim, lan
    ):
        # The regression this satellite fixes: stale pre-heal samples
        # combine with one fresh sample into a premature declaration.
        detector = self._run_blip_then_cut(sim, lan, sight_on_heal=False)
        sim.run(until=35.0)
        assert detector.is_declared_crashed("server-1")

    def test_rewatch_is_a_fresh_sighting(self, sim, lan):
        detector = _vantage_detector(sim, lan, confirm_polls=3)
        detector.watch("server-1")
        lan.sever_link("server-1", OBSERVER)
        sim.run(until=25.0)  # two down samples banked
        detector.watch("server-1")  # a rejoin re-watches the member
        sim.run(until=35.0)
        assert not detector.is_declared_crashed("server-1")


class TestViewConvergence:
    """Partition → eviction → heal → rejoin, with exactly-once views."""

    def _stack(self):
        # The bare stack's detector polls every 10 ms and confirms on the
        # second down sample, like _vantage_detector; on its plain wire a
        # total cut is enforced by the LAN alone.
        stack = MiniStack()
        stack.detector.vantage = OBSERVER
        stack.lan.add_host(OBSERVER)
        stack.add_server("server-1")
        stack.add_server("server-2")
        return stack, stack.group_comm

    def test_views_reconverge_after_the_heal(self):
        stack, comm = self._stack()
        views = []
        comm.on_view_change(SERVICE, OBSERVER, views.append)
        stack.faults.apply(
            FaultSchedule(
                partitions=(
                    PartitionFault(
                        side=("server-1",), start_ms=50.0, end_ms=200.0
                    ),
                ),
            )
        )
        stack.sim.run(until=150.0)
        assert comm.failure_detector.is_declared_crashed("server-1")
        assert "server-1" not in comm.view(SERVICE)
        stack.sim.run(until=400.0)
        # Healed: sighted, rejoined, and the view converged back.
        assert not comm.failure_detector.is_declared_crashed("server-1")
        final = comm.view(SERVICE)
        assert "server-1" in final and "server-2" in final
        assert stack.faults.sightings_applied == 1
        assert stack.faults.heal_rejoins_applied == 1
        # Exactly-once view delivery, in installation order: some view
        # excludes the dark host, a later one restores it, and no
        # view_id is ever delivered twice.
        ids = [view.view_id for view in views]
        assert ids == sorted(set(ids))
        assert any("server-1" not in view for view in views)
        assert "server-1" in views[-1]

    def test_member_behind_the_cut_misses_no_final_view(self):
        # The view callback of the *partitioned* member still fires (the
        # notifier only checks host liveness, not reachability — Ensemble
        # delivers the backlog once the member is reachable again), and
        # after the heal its last view matches the observer's.
        stack, comm = self._stack()
        dark, lit = [], []
        comm.on_view_change(SERVICE, "server-1", dark.append)
        comm.on_view_change(SERVICE, OBSERVER, lit.append)
        stack.faults.apply(
            FaultSchedule(
                partitions=(
                    PartitionFault(
                        side=("server-1",), start_ms=50.0, end_ms=200.0
                    ),
                ),
            )
        )
        stack.sim.run(until=400.0)
        assert dark[-1].members == lit[-1].members
        assert "server-1" in dark[-1]


class TestMulticastUnderPartition:
    def _group(self, transport):
        group = Group("svc")
        group.join("server-1")
        group.join("server-2")
        return group, MulticastGroup(group, transport)

    def test_one_way_loss_kills_only_dark_side_copies(
        self, sim, lan, transport
    ):
        group, mgroup = self._group(transport)
        received = {"server-1": [], "server-2": []}
        for host in received:
            transport.bind(host, received[host].append)
        lan.sever_link(OBSERVER, "server-1")
        targets = mgroup.send(Message(OBSERVER, "*", "data", payload=1))
        assert sorted(targets) == ["server-1", "server-2"]
        sim.run()
        # The multicast addressed both; only the reachable copy landed.
        assert [m.payload for m in received["server-2"]] == [1]
        assert received["server-1"] == []
        assert transport.lost_count == 1
        # After the heal the same group delivers everywhere again.
        lan.heal_link(OBSERVER, "server-1")
        mgroup.send(Message(OBSERVER, "*", "data", payload=2))
        sim.run()
        assert [m.payload for m in received["server-1"]] == [2]
        assert [m.payload for m in received["server-2"]] == [1, 2]

    def test_reordered_multicasts_deliver_exactly_once_each(
        self, sim, lan, transport
    ):
        # A delay window reorders two multicasts; every destination sees
        # both exactly once, out of order, and the copies of one send
        # share its msg_id (one logical multicast).
        schedule = FaultSchedule(
            delays=(DelayRule(start_ms=0.0, end_ms=5.0, extra_ms=30.0),),
        )
        faulty = FaultyTransport(transport, RNGManager(0))
        faulty.schedule = schedule
        group, mgroup = self._group(faulty)
        received = {"server-1": [], "server-2": []}
        for host in received:
            transport.bind(host, received[host].append)
        first = Message(OBSERVER, "*", "data", payload="first")
        second = Message(OBSERVER, "*", "data", payload="second")
        sim.call_in(1.0, lambda: mgroup.send(first))
        sim.call_in(10.0, lambda: mgroup.send(second))
        sim.run()
        for host, messages in received.items():
            assert [m.payload for m in messages] == ["second", "first"]
        assert {m.msg_id for m in received["server-1"]} == {
            m.msg_id for m in received["server-2"]
        }

    def test_send_skips_evicted_members_and_raises_when_none_remain(
        self, sim, transport
    ):
        group, mgroup = self._group(transport)
        group.evict("server-1")
        targets = mgroup.send(
            Message(OBSERVER, "*", "data"),
            members=["server-1", "server-2"],
        )
        assert targets == ["server-2"]
        with pytest.raises(MembershipError):
            mgroup.send(Message(OBSERVER, "*", "data"), members=["server-1"])
