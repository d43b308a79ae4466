"""The partition fault family: rules, wire enforcement, and the plane.

Covers the three enforcement layers of ISSUE 9's fault plane:

* :class:`PartitionFault` as pure data — validation, activity windows
  (including flapping duty cycles), crossing/severing semantics for all
  three modes, and the ``lan_visible`` / ``blackout`` classification;
* wire-level enforcement — the reference-counted severed-pair map of
  :class:`LanModel`, the :class:`Transport` partition check that kills
  delayed/duplicated copies, and :class:`FaultyTransport`'s per-message
  interpretation (grey exemptions, lossy cuts, draw-free total cuts);
* the fault plane's partition family — mirroring blackout cuts into the
  LAN, failure-detector eviction from a vantage host, and the heal-time
  reconciliation that re-sights and rejoins partitioned replicas.
"""

import pytest

from repro.faultinject import (
    CrashRestartFault,
    FaultSchedule,
    FaultyTransport,
    PartitionFault,
    PROBE_EXEMPT_KINDS,
)
from repro.gateway.handlers.timing_fault import MSG_PROBE
from repro.net.message import Message
from repro.rng import RNGManager
from repro.sim.random import Constant

from .conftest import SERVICE, FaultStack


def _msg(src="client-1", dst="server-1", kind="request"):
    return Message(sender=src, destination=dst, kind=kind)


def grey_partition(side, start_ms, end_ms):
    """A grey failure: probes and probe replies cross, data traffic dies."""
    return PartitionFault(
        side=side, start_ms=start_ms, end_ms=end_ms,
        exempt_kinds=PROBE_EXEMPT_KINDS,
    )


def _cut(stack, *faults):
    """Apply ``faults`` as one partition-only schedule."""
    stack.faults.apply(FaultSchedule(partitions=faults))


class TestPartitionFaultValidation:
    def test_needs_a_dark_side(self):
        with pytest.raises(ValueError):
            PartitionFault(side=(), start_ms=0.0, end_ms=10.0)

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            PartitionFault(side=("a",), start_ms=10.0, end_ms=10.0)
        with pytest.raises(ValueError):
            PartitionFault(side=("a",), start_ms=-1.0, end_ms=10.0)

    def test_side_and_far_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a", "b"), far=("b",), start_ms=0.0, end_ms=10.0
            )

    def test_mode_is_closed_set(self):
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a",), start_ms=0.0, end_ms=10.0, mode="sideways"
            )

    def test_drop_probability_bounds(self):
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a",), start_ms=0.0, end_ms=10.0, drop_probability=0.0
            )
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a",), start_ms=0.0, end_ms=10.0, drop_probability=1.5
            )

    def test_flap_parameters_validated(self):
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a",), start_ms=0.0, end_ms=10.0, flap_period_ms=0.0
            )
        with pytest.raises(ValueError):
            PartitionFault(
                side=("a",), start_ms=0.0, end_ms=10.0, flap_duty=0.0
            )


class TestActivityAndIntervals:
    def test_steady_cut_active_over_half_open_window(self):
        fault = PartitionFault(side=("a",), start_ms=10.0, end_ms=20.0)
        assert not fault.active(9.9)
        assert fault.active(10.0)
        assert fault.active(19.9)
        assert not fault.active(20.0)
        assert fault.cut_intervals() == [(10.0, 20.0)]

    def test_flapping_cut_follows_the_duty_cycle(self):
        fault = PartitionFault(
            side=("a",),
            start_ms=100.0,
            end_ms=140.0,
            flap_period_ms=20.0,
            flap_duty=0.5,
        )
        # Cycle 1: cut for [100, 110), healed [110, 120); cycle 2 likewise.
        assert fault.active(105.0)
        assert not fault.active(115.0)
        assert fault.active(125.0)
        assert not fault.active(135.0)
        assert fault.cut_intervals() == [(100.0, 110.0), (120.0, 130.0)]

    def test_flap_intervals_never_outlive_the_window(self):
        fault = PartitionFault(
            side=("a",),
            start_ms=0.0,
            end_ms=25.0,
            flap_period_ms=20.0,
            flap_duty=0.5,
        )
        intervals = fault.cut_intervals()
        assert intervals == [(0.0, 10.0), (20.0, 25.0)]
        assert all(heal <= fault.end_ms for _cut, heal in intervals)


class TestSeveringSemantics:
    def test_symmetric_cut_kills_both_directions(self):
        fault = PartitionFault(side=("s-1",), start_ms=0.0, end_ms=100.0)
        assert fault.severs(50.0, _msg("s-1", "client-1"))
        assert fault.severs(50.0, _msg("client-1", "s-1"))
        assert not fault.severs(150.0, _msg("client-1", "s-1"))

    def test_outbound_cut_loses_only_dark_side_traffic(self):
        # Requests arrive, replies vanish — the asymmetric cut.
        fault = PartitionFault(
            side=("s-1",), start_ms=0.0, end_ms=100.0, mode="outbound"
        )
        assert fault.severs(50.0, _msg("s-1", "client-1"))
        assert not fault.severs(50.0, _msg("client-1", "s-1"))

    def test_inbound_cut_loses_only_traffic_toward_the_dark_side(self):
        fault = PartitionFault(
            side=("s-1",), start_ms=0.0, end_ms=100.0, mode="inbound"
        )
        assert not fault.severs(50.0, _msg("s-1", "client-1"))
        assert fault.severs(50.0, _msg("client-1", "s-1"))

    def test_traffic_within_one_side_never_crosses(self):
        fault = PartitionFault(
            side=("s-1", "s-2"), start_ms=0.0, end_ms=100.0
        )
        assert not fault.severs(50.0, _msg("s-1", "s-2"))
        assert not fault.severs(50.0, _msg("client-1", "client-2"))

    def test_explicit_far_side_restricts_the_cut(self):
        fault = PartitionFault(
            side=("s-1",), far=("s-2",), start_ms=0.0, end_ms=100.0
        )
        assert fault.severs(50.0, _msg("s-1", "s-2"))
        assert fault.severs(50.0, _msg("s-2", "s-1"))
        # Hosts outside side ∪ far still talk to both.
        assert not fault.severs(50.0, _msg("s-1", "client-1"))
        assert not fault.severs(50.0, _msg("client-1", "s-1"))

    def test_grey_partition_exempts_the_probe_round_trip(self):
        fault = grey_partition(side=("s-1",), start_ms=0.0, end_ms=100.0)
        assert fault.exempt_kinds == PROBE_EXEMPT_KINDS
        for kind in PROBE_EXEMPT_KINDS:
            assert not fault.severs(50.0, _msg("s-1", "client-1", kind=kind))
        assert fault.severs(50.0, _msg("s-1", "client-1", kind="reply"))

    def test_separates_is_mode_agnostic(self):
        # Any severed crossing direction kills a round trip.
        for mode in ("symmetric", "outbound", "inbound"):
            fault = PartitionFault(
                side=("s-1",), start_ms=0.0, end_ms=100.0, mode=mode
            )
            assert fault.separates("client-1", "s-1")
            assert fault.separates("s-1", "client-1")
            assert not fault.separates("client-1", "client-2")


class TestClassification:
    def test_total_steady_cut_is_a_blackout(self):
        fault = PartitionFault(side=("s-1",), start_ms=0.0, end_ms=100.0)
        assert fault.lan_visible
        assert fault.blackout

    def test_grey_cut_stays_wire_level(self):
        fault = grey_partition(side=("s-1",), start_ms=0.0, end_ms=100.0)
        assert not fault.lan_visible
        assert not fault.blackout

    def test_lossy_cut_stays_wire_level(self):
        fault = PartitionFault(
            side=("s-1",), start_ms=0.0, end_ms=100.0, drop_probability=0.5
        )
        assert not fault.lan_visible

    def test_flapping_total_cut_is_lan_visible_but_not_blackout(self):
        fault = PartitionFault(
            side=("s-1",), start_ms=0.0, end_ms=100.0, flap_period_ms=10.0
        )
        assert fault.lan_visible
        assert not fault.blackout


class TestLanConnectivity:
    def test_severed_links_are_reference_counted(self, lan):
        lan.sever_link("client-1", "server-1")
        lan.sever_link("client-1", "server-1")
        assert not lan.reachable("client-1", "server-1")
        lan.heal_link("client-1", "server-1")
        assert not lan.reachable("client-1", "server-1")  # one cut remains
        lan.heal_link("client-1", "server-1")
        assert lan.reachable("client-1", "server-1")

    def test_heal_is_idempotent_at_zero(self, lan):
        lan.heal_link("client-1", "server-1")  # never severed: no-op
        assert lan.reachable("client-1", "server-1")

    def test_severance_is_directional(self, lan):
        lan.sever_link("server-1", "client-1")
        assert not lan.reachable("server-1", "client-1")
        assert lan.reachable("client-1", "server-1")
        assert lan.severed_links() == [("server-1", "client-1")]

    def test_transport_loses_messages_on_severed_links(
        self, sim, lan, transport
    ):
        received = []
        transport.bind("server-1", received.append)
        lan.sever_link("client-1", "server-1")
        transport.send(_msg())
        sim.run()
        assert received == []
        assert transport.lost_count == 1
        lan.heal_link("client-1", "server-1")
        transport.send(_msg())
        sim.run()
        assert len(received) == 1


class TestFaultyTransportEnforcement:
    def _wired(self, schedule, fault_seed=0):
        stack = FaultStack(fault_seed=fault_seed)
        stack.add_server("s-1", service_time=Constant(5.0))
        stack.add_server("s-2", service_time=Constant(5.0))
        stack.add_client("c-1", deadline_ms=100.0)
        stack.faults.apply(schedule)
        return stack

    @staticmethod
    def _bare_wire(schedule, fault_seed=0):
        """A fault-injecting wire with no handlers (no setup traffic)."""
        from repro.net.lan import LanModel
        from repro.net.transport import Transport
        from repro.sim.kernel import Simulator

        sim = Simulator()
        lan = LanModel(RNGManager(base_seed=0))
        for host in ("c-1", "s-1"):
            lan.add_host(host)
        inner = Transport(sim, lan)
        faulty = FaultyTransport(inner, RNGManager(fault_seed))
        faulty.schedule = schedule
        return sim, inner, faulty

    def test_blackout_cut_times_out_the_request(self):
        schedule = FaultSchedule(
            partitions=(
                PartitionFault(side=("s-1", "s-2"), start_ms=0.0, end_ms=500.0),
            )
        )
        stack = self._wired(schedule)
        event = stack.invoke("c-1", 0)
        stack.sim.run()
        assert event.value.timed_out
        assert stack.transport.injected_partition_drops > 0
        stack.auditor.assert_clean()

    def test_outbound_cut_delivers_the_request_but_loses_the_reply(self):
        schedule = FaultSchedule(
            partitions=(
                PartitionFault(
                    side=("s-1", "s-2"),
                    start_ms=0.0,
                    end_ms=500.0,
                    mode="outbound",
                ),
            )
        )
        stack = self._wired(schedule)
        event = stack.invoke("c-1", 0)
        stack.sim.run()
        assert event.value.timed_out
        # The dark side *served* the request — only its ack vanished.
        served = sum(server.replies for server in stack.servers.values())
        assert served >= 1
        stack.auditor.assert_clean()

    def test_total_cut_is_draw_free(self):
        # A blackout consumes no wire-stream randomness, so adding one
        # never perturbs the draws of the probabilistic rules.
        schedule = FaultSchedule(
            partitions=(
                PartitionFault(side=("s-1",), start_ms=0.0, end_ms=100.0),
            )
        )
        _sim, _inner, faulty = self._bare_wire(schedule)
        state = faulty.rng.bit_generator.state
        faulty.send(_msg("c-1", "s-1"))
        assert faulty.injected_partition_drops == 1
        assert faulty.rng.bit_generator.state == state

    def test_lossy_cut_draws_from_the_wire_stream(self):
        fault = PartitionFault(
            side=("s-1",), start_ms=0.0, end_ms=100.0, drop_probability=0.5
        )
        schedule = FaultSchedule(partitions=(fault,))
        _sim, _inner, faulty = self._bare_wire(schedule, fault_seed=3)
        sent = 200
        for _ in range(sent):
            faulty.send(_msg("c-1", "s-1"))
        dropped = faulty.injected_partition_drops
        # A fair-ish coin: some die, some pass, none of it deterministic.
        assert 0 < dropped < sent
        rng = RNGManager(3).stream(FaultyTransport.STREAM_NAME)
        expected = sum(rng.random() < 0.5 for _ in range(sent))
        assert dropped == expected

    def test_grey_cut_passes_probes_and_drops_data(self):
        fault = grey_partition(side=("s-1",), start_ms=0.0, end_ms=100.0)
        sim, inner, faulty = self._bare_wire(FaultSchedule(partitions=(fault,)))
        received = []
        inner.bind("s-1", received.append)
        faulty.send(_msg("c-1", "s-1", kind=MSG_PROBE))
        faulty.send(_msg("c-1", "s-1", kind="request"))
        sim.run()
        assert [m.kind for m in received] == [MSG_PROBE]
        assert faulty.injected_partition_drops == 1


class TestPartitionDriver:
    def test_unknown_host_is_rejected_before_anything_is_armed(self):
        # The old driver silently filtered such a host out of its side.
        stack = FaultStack()
        stack.add_server("s-1")
        known = PartitionFault(side=("s-1",), start_ms=1.0, end_ms=50.0)
        for ghost in (
            PartitionFault(side=("s-1", "elsewhere"), start_ms=1.0, end_ms=50.0),
            PartitionFault(
                side=("s-1",), far=("elsewhere",), start_ms=1.0, end_ms=50.0
            ),
        ):
            with pytest.raises(ValueError, match="partitions.*'elsewhere'"):
                _cut(stack, known, ghost)
        stack.sim.run(until=100.0)
        assert stack.faults.cuts_applied == 0
        assert len(stack.transport.schedule) == 0

    def test_wire_only_cuts_never_touch_the_lan(self):
        stack = FaultStack()
        stack.add_server("s-1")
        _cut(
            stack,
            grey_partition(side=("s-1",), start_ms=1.0, end_ms=50.0),
            PartitionFault(
                side=("s-1",), start_ms=1.0, end_ms=50.0, drop_probability=0.5
            ),
        )
        stack.sim.run(until=100.0)
        assert stack.faults.cuts_applied == 0
        assert stack.lan.severed_links() == []

    def test_blackout_cut_severs_and_heals_ordered_pairs(self):
        stack = FaultStack()
        stack.add_server("s-1")
        stack.add_server("s-2")
        stack.add_client("c-1")
        plane = stack.faults
        fault = PartitionFault(side=("s-1",), start_ms=10.0, end_ms=50.0)
        _cut(stack, fault)
        stack.sim.run(until=20.0)
        severed = set(stack.lan.severed_links())
        assert ("s-1", "s-2") in severed
        assert ("s-2", "s-1") in severed
        assert ("s-1", "c-1") in severed
        assert ("c-1", "s-1") in severed
        stack.sim.run(until=60.0)
        assert stack.lan.severed_links() == []
        assert plane.cuts_applied == 1
        assert plane.heals_applied == 1

    def test_one_way_cut_severs_one_direction_only(self):
        stack = FaultStack()
        stack.add_server("s-1")
        stack.add_client("c-1")
        plane = stack.faults
        fault = PartitionFault(
            side=("s-1",), start_ms=10.0, end_ms=50.0, mode="outbound"
        )
        _cut(stack, fault)
        stack.sim.run(until=20.0)
        assert stack.lan.severed_links() == [("s-1", "c-1")]
        assert stack.lan.reachable("c-1", "s-1")

    def test_flapping_cut_cycles_the_links(self):
        stack = FaultStack()
        stack.add_server("s-1")
        stack.add_client("c-1")
        plane = stack.faults
        fault = PartitionFault(
            side=("s-1",),
            start_ms=0.0,
            end_ms=100.0,
            flap_period_ms=40.0,
            flap_duty=0.5,
        )
        _cut(stack, fault)
        stack.sim.run(until=10.0)
        assert stack.lan.severed_links() != []
        stack.sim.run(until=30.0)
        assert stack.lan.severed_links() == []
        stack.sim.run(until=50.0)
        assert stack.lan.severed_links() != []
        stack.sim.run(until=200.0)
        assert stack.lan.severed_links() == []
        assert plane.cuts_applied == 3  # cycles at 0, 40 and 80 ms
        assert plane.heals_applied == 3

    def test_delayed_copies_die_on_a_cut_applied_after_send(self):
        # A duplicate scheduled before the cut must not cross it: the
        # LAN-level severance catches what FaultyTransport already
        # processed.
        from repro.faultinject.schedule import DuplicateRule

        schedule = FaultSchedule(
            duplicates=(
                DuplicateRule(
                    start_ms=0.0, end_ms=5.0, copies=1, late_by_ms=30.0
                ),
            ),
            partitions=(
                PartitionFault(side=("s-1",), start_ms=10.0, end_ms=100.0),
            ),
        )
        stack = FaultStack()
        for host in ("c-1", "s-1"):
            stack.lan.add_host(host)  # no handlers: no setup traffic
        stack.faults.apply(schedule)
        received = []
        stack.transport.bind("s-1", received.append)
        stack.transport.send(_msg("c-1", "s-1"))  # duplicated, copy at ~30ms
        stack.sim.run(until=200.0)
        assert stack.transport.injected_duplicates == 1
        assert len(received) == 1  # the original; the late copy died
        assert stack.transport.lost_count == 1


def _vantage_stack():
    """A stack whose detector observes from the client's vantage."""
    stack = FaultStack()
    stack.detector.vantage = "c-1"
    stack.add_client("c-1")
    stack.add_server("s-1")
    stack.add_server("s-2")
    return stack, stack.detector


class TestHealReconciliation:
    def _partitioned_stack(self):
        return _vantage_stack()

    def test_partition_evicts_and_heal_rejoins(self):
        stack, detector = self._partitioned_stack()
        plane = stack.faults
        fault = PartitionFault(side=("s-1",), start_ms=50.0, end_ms=200.0)
        _cut(stack, fault)
        stack.sim.run(until=150.0)
        # Mid-cut: the vantage host cannot see s-1, so the detector
        # declared it crashed and the group evicted it — view churn.
        assert detector.is_declared_crashed("s-1")
        assert "s-1" not in stack.group_comm.view(SERVICE)
        assert stack.lan.is_up("s-1")  # it never actually crashed
        stack.sim.run(until=400.0)
        # Post-heal: fresh sighting, membership reconciled.
        assert not detector.is_declared_crashed("s-1")
        assert "s-1" in stack.group_comm.view(SERVICE)
        assert plane.sightings_applied == 1
        assert plane.heal_rejoins_applied == 1

    def test_heal_leaves_hosts_cut_by_an_overlapping_partition(self):
        stack, detector = self._partitioned_stack()
        plane = stack.faults
        first = PartitionFault(side=("s-1",), start_ms=50.0, end_ms=200.0)
        second = PartitionFault(side=("s-1",), start_ms=100.0, end_ms=300.0)
        _cut(stack, first, second)
        stack.sim.run(until=250.0)
        # First heal at 200ms found s-1 still severed by the second cut:
        # no premature rejoin.
        assert "s-1" not in stack.group_comm.view(SERVICE)
        assert plane.heal_rejoins_applied == 0
        stack.sim.run(until=400.0)
        assert "s-1" in stack.group_comm.view(SERVICE)
        assert plane.heal_rejoins_applied == 1

    def test_heal_never_resurrects_a_genuinely_crashed_host(self):
        stack, detector = self._partitioned_stack()
        plane = stack.faults
        fault = PartitionFault(side=("s-1",), start_ms=50.0, end_ms=200.0)
        _cut(stack, fault)
        # The host dies for real mid-cut; the heal must not rejoin it.
        stack.sim.call_at(100.0, lambda: stack.lan.mark_down("s-1"))
        stack.sim.run(until=400.0)
        assert detector.is_declared_crashed("s-1")
        assert "s-1" not in stack.group_comm.view(SERVICE)
        assert plane.heal_rejoins_applied == 0

    def test_heal_without_declaration_is_a_noop(self):
        # Cut too short for the detector to confirm: nothing to reconcile.
        stack, detector = self._partitioned_stack()
        plane = stack.faults
        fault = PartitionFault(side=("s-1",), start_ms=52.0, end_ms=61.0)
        _cut(stack, fault)
        stack.sim.run(until=200.0)
        assert not detector.is_declared_crashed("s-1")
        assert "s-1" in stack.group_comm.view(SERVICE)
        assert plane.sightings_applied == 0
        assert plane.heal_rejoins_applied == 0


class TestFlapCrashRestartComposition:
    """ISSUE 10 satellite: a flapping cut composed with a crash-restart.

    The contract is the suspicion lifecycle: every positive liveness
    event — a flap heal's reconciliation or a restart — routes through
    :meth:`FailureDetector.sight`, which clears both the crash
    declaration and the consecutive-down count.  Eviction leaves the
    host watched, so the poll chain keeps accumulating down samples the whole
    time a host is gone; without the sighting reset, the first blip
    after recovery would confirm a "crash" in a single poll.
    """

    def test_restart_after_flapping_cut_clears_stale_suspicion(self):
        stack, detector = _vantage_stack()
        plane = stack.faults
        # Flap [50, 230), 60ms period, 50% duty: cuts at [50, 80),
        # [110, 140), [170, 200).  The host genuinely dies during the
        # second cut and comes back long after the window.
        plane.apply(
            FaultSchedule(
                partitions=(
                    PartitionFault(
                        side=("s-1",),
                        start_ms=50.0,
                        end_ms=230.0,
                        flap_period_ms=60.0,
                        flap_duty=0.5,
                    ),
                ),
                crashes=(
                    CrashRestartFault(
                        host="s-1", crash_at_ms=120.0, restart_at_ms=400.0
                    ),
                ),
            )
        )

        # First cut: two 10ms polls from c-1 confirm, s-1 is evicted —
        # yet it never actually crashed.
        stack.sim.run(until=75.0)
        assert detector.is_declared_crashed("s-1")
        assert "s-1" not in stack.group_comm.view(SERVICE)
        assert stack.lan.is_up("s-1")

        # The heal at 80 re-sighted and rejoined it once; the heals at
        # 140 and 200 found it genuinely down and must not resurrect it.
        stack.sim.run(until=300.0)
        assert detector.is_declared_crashed("s-1")
        assert "s-1" not in stack.group_comm.view(SERVICE)
        assert not stack.lan.is_up("s-1")
        assert plane.sightings_applied == 1
        assert plane.heal_rejoins_applied == 1
        assert plane.crashes_applied == 1

        # Restart: forget() -> sight() clears the declaration and the
        # ~28 consecutive down samples gathered since the crash, and the
        # fresh incarnation rejoins the view.
        stack.sim.run(until=405.0)
        assert not detector.is_declared_crashed("s-1")
        assert "s-1" in stack.group_comm.view(SERVICE)
        assert plane.restarts_applied == 1

        # The teeth of sight(): a single-poll blip after the restart is
        # one fresh down sample, short of confirm_polls=2.  Had the
        # crashed stretch's suspicion survived the sighting, this blip
        # would insta-declare and evict again.
        stack.sim.call_at(414.0, lambda: stack.lan.mark_down("s-1"))
        stack.sim.call_at(423.0, lambda: stack.lan.mark_up("s-1"))
        stack.sim.run(until=460.0)
        assert not detector.is_declared_crashed("s-1")
        assert "s-1" in stack.group_comm.view(SERVICE)
