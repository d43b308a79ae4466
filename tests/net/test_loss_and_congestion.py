"""Tests for omission faults and shared congestion on the LAN."""

import pytest

from repro.net.lan import LanModel, LinkProfile
from repro.net.message import Message
from repro.net.transport import Transport
from repro.rng import RNGManager
from repro.sim.random import Constant


def _lan(streams, loss=0.0, shared=None):
    profile = LinkProfile(jitter=Constant(0.0), loss_probability=loss)
    lan = LanModel(streams, default_profile=profile, shared_congestion=shared)
    lan.add_host("a")
    lan.add_host("b")
    return lan


class TestLoss:
    def test_loss_probability_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(loss_probability=1.0)
        with pytest.raises(ValueError):
            LinkProfile(loss_probability=-0.1)

    def test_zero_loss_never_drops(self, streams):
        lan = _lan(streams, loss=0.0)
        assert not any(lan.should_drop("a", "b") for _ in range(500))

    def test_loss_rate_is_respected(self, streams):
        lan = _lan(streams, loss=0.25)
        drops = sum(lan.should_drop("a", "b") for _ in range(4000))
        assert drops / 4000 == pytest.approx(0.25, abs=0.03)

    def test_lost_messages_never_delivered(self, sim, streams):
        lan = _lan(streams, loss=0.5)
        transport = Transport(sim, lan)
        received = []
        transport.bind("b", received.append)
        for _ in range(200):
            transport.send(
                Message(sender="a", destination="b", kind="x", payload={})
            )
        sim.run()
        assert transport.lost_count > 0
        assert len(received) + transport.lost_count == 200

    def test_loss_applies_per_link(self, sim, streams):
        lan = _lan(streams, loss=0.0)
        lossy = LinkProfile(jitter=Constant(0.0), loss_probability=0.9)
        lan.set_link_profile("a", "b", lossy)
        drops_forward = sum(lan.should_drop("a", "b") for _ in range(300))
        drops_reverse = sum(lan.should_drop("b", "a") for _ in range(300))
        assert drops_forward > 200
        assert drops_reverse == 0


class TestSharedCongestion:
    def test_shared_component_adds_delay(self, streams):
        quiet = _lan(streams, shared=None)
        congested = _lan(
            RNGManager(base_seed=99), shared=Constant(25.0)
        )
        base = quiet.one_way_delay("a", "b")
        loaded = congested.one_way_delay("a", "b")
        assert loaded == pytest.approx(base + 25.0)

    def test_shared_state_correlates_links(self, streams):
        # With a Markov-modulated shared component, bursts hit messages on
        # *different* links at overlapping draws.
        from repro.sim.random import MarkovModulated

        shared = MarkovModulated(
            Constant(0.0), Constant(50.0),
            p_enter_burst=0.2, p_exit_burst=0.2,
        )
        lan = _lan(RNGManager(base_seed=3), shared=shared)
        lan.add_host("c")
        delays_ab = []
        delays_ac = []
        for _ in range(400):
            delays_ab.append(lan.one_way_delay("a", "b"))
            delays_ac.append(lan.one_way_delay("a", "c"))
        burst_ab = [d > 25.0 for d in delays_ab]
        burst_ac = [d > 25.0 for d in delays_ac]
        # Consecutive draws share the chain state often enough that joint
        # bursts are far more common than independence would allow.
        joint = sum(1 for x, y in zip(burst_ab, burst_ac) if x and y)
        p_ab = sum(burst_ab) / len(burst_ab)
        p_ac = sum(burst_ac) / len(burst_ac)
        assert joint / len(burst_ab) > 1.5 * p_ab * p_ac
