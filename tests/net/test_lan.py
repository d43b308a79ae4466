"""Unit tests for the LAN latency/topology model."""

import pytest

from repro.net.lan import LanModel, LinkProfile, bursty_jitter
from repro.sim.random import Constant, Normal


@pytest.fixture
def quiet_lan(streams):
    """A LAN with zero jitter for deterministic delay assertions."""
    profile = LinkProfile(
        stack_ms=1.0, per_kb_ms=0.5, per_member_ms=0.1, jitter=Constant(0.0)
    )
    lan = LanModel(streams, default_profile=profile)
    lan.add_host("a")
    lan.add_host("b")
    return lan


class TestTopology:
    def test_duplicate_host_rejected(self, quiet_lan):
        with pytest.raises(ValueError):
            quiet_lan.add_host("a")

    def test_unknown_host_lookup_raises(self, quiet_lan):
        with pytest.raises(KeyError):
            quiet_lan.host("nope")

    def test_has_host(self, quiet_lan):
        assert quiet_lan.has_host("a")
        assert not quiet_lan.has_host("zz")

    def test_hosts_in_registration_order(self, quiet_lan):
        assert [h.name for h in quiet_lan.hosts()] == ["a", "b"]


class TestAvailability:
    def test_hosts_start_up(self, quiet_lan):
        assert quiet_lan.is_up("a")

    def test_mark_down_and_up(self, quiet_lan):
        quiet_lan.mark_down("a")
        assert not quiet_lan.is_up("a")
        quiet_lan.mark_up("a")
        assert quiet_lan.is_up("a")


class TestChangeNotification:
    def test_every_mutator_reports_the_hosts_it_touched(self, quiet_lan):
        seen = []
        quiet_lan.on_change(seen.append)
        quiet_lan.mark_down("b")
        quiet_lan.mark_up("b")
        quiet_lan.sever_link("a", "b")
        quiet_lan.sever_link("a", "b")  # refcount 2
        quiet_lan.heal_link("a", "b")
        quiet_lan.heal_link("a", "b")
        quiet_lan.heal_link("a", "b")  # idempotent at zero, still reported
        assert seen == [("b",), ("b",)] + [("a", "b")] * 5

    def test_listener_sees_the_new_state(self, quiet_lan):
        states = []
        quiet_lan.on_change(
            lambda hosts: states.append(
                (quiet_lan.is_up("b"), quiet_lan.reachable("a", "b"))
            )
        )
        quiet_lan.mark_down("b")
        quiet_lan.sever_link("a", "b")
        quiet_lan.heal_link("a", "b")
        quiet_lan.mark_up("b")
        assert states == [(False, True), (False, False), (False, True), (True, True)]

    def test_reads_and_topology_edits_report_nothing(self, quiet_lan):
        seen = []
        quiet_lan.on_change(seen.append)
        quiet_lan.add_host("d")
        quiet_lan.is_up("a")
        quiet_lan.reachable("a", "b")
        quiet_lan.one_way_delay("a", "b")
        quiet_lan.set_link_profile("a", "b", LinkProfile())
        assert seen == []


class TestDelays:
    def test_delay_components_add_up(self, quiet_lan):
        # stack 1.0 + 1024 bytes * 0.5/kb + no members + no jitter = 1.5
        delay = quiet_lan.one_way_delay("a", "b", size_bytes=1024, group_size=1)
        assert delay == pytest.approx(1.5)

    def test_multicast_members_add_cost(self, quiet_lan):
        solo = quiet_lan.one_way_delay("a", "b", group_size=1)
        group = quiet_lan.one_way_delay("a", "b", group_size=5)
        assert group == pytest.approx(solo + 4 * 0.1)

    def test_group_size_validation(self, quiet_lan):
        with pytest.raises(ValueError):
            quiet_lan.one_way_delay("a", "b", group_size=0)

    def test_link_override_takes_precedence(self, quiet_lan):
        slow = LinkProfile(
            stack_ms=100.0, per_kb_ms=0.0, per_member_ms=0.0, jitter=Constant(0.0)
        )
        quiet_lan.set_link_profile("a", "b", slow)
        assert quiet_lan.one_way_delay("a", "b") == pytest.approx(100.0)
        # Reverse direction keeps the default.
        assert quiet_lan.one_way_delay("b", "a") < 10.0

    def test_jitter_never_makes_delay_negative(self, streams):
        profile = LinkProfile(
            stack_ms=0.0, per_kb_ms=0.0, per_member_ms=0.0,
            jitter=Normal(0.0, 5.0),
        )
        lan = LanModel(streams, default_profile=profile)
        lan.add_host("a")
        lan.add_host("b")
        for _ in range(200):
            assert lan.one_way_delay("a", "b") >= 0.0

    def test_bursty_jitter_produces_occasional_large_delays(self, streams):
        profile = LinkProfile(jitter=bursty_jitter())
        lan = LanModel(streams, default_profile=profile)
        lan.add_host("a")
        lan.add_host("b")
        delays = [lan.one_way_delay("a", "b") for _ in range(2000)]
        assert max(delays) > 5.0  # burst samples present
        assert sorted(delays)[len(delays) // 2] < 3.0  # median stays LAN-like


class TestZones:
    def test_zone_distance(self, streams):
        lan = LanModel(streams)
        lan.add_host("near", zone="rack-1")
        lan.add_host("same", zone="rack-1")
        lan.add_host("far", zone="rack-2")
        assert lan.zone_distance("near", "same") == 0.0
        assert lan.zone_distance("near", "far") == 1.0
