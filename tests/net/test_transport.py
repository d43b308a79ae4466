"""Unit tests for the transport layer."""

import hashlib
import json
from collections import Counter

import pytest

from repro.gateway.gateway import Gateway, ProtocolHandler
from repro.net.lan import LanModel, LinkProfile
from repro.net.message import Message, reset_message_ids
from repro.net.transport import Transport
from repro.rng import RNGManager
from repro.sim.kernel import Simulator
from repro.sim.random import Constant, Exponential


def _msg(dest="server-1", **overrides):
    base = dict(sender="client-1", destination=dest, kind="request", payload={})
    base.update(overrides)
    return Message(**base)


class TestBinding:
    def test_bind_requires_known_host(self, transport):
        with pytest.raises(KeyError):
            transport.bind("ghost", lambda m: None)

    def test_double_bind_rejected(self, transport):
        transport.bind("server-1", lambda m: None)
        with pytest.raises(ValueError):
            transport.bind("server-1", lambda m: None)

    def test_unbind_is_idempotent(self, transport):
        transport.bind("server-1", lambda m: None)
        transport.unbind("server-1")
        transport.unbind("server-1")
        assert not transport.is_bound("server-1")


class TestDelivery:
    def test_message_arrives_after_positive_delay(self, sim, transport):
        inbox = []
        transport.bind("server-1", inbox.append)
        delay = transport.send(_msg())
        assert delay > 0
        assert inbox == []  # not yet delivered
        sim.run()
        assert len(inbox) == 1
        assert sim.now == pytest.approx(delay)

    def test_delivery_to_down_host_is_dropped(self, sim, lan, transport):
        inbox = []
        transport.bind("server-1", inbox.append)
        lan.mark_down("server-1")
        transport.send(_msg())
        sim.run()
        assert inbox == []
        assert transport.dropped_count == 1

    def test_host_crashing_in_flight_drops_delivery(self, sim, lan, transport):
        inbox = []
        transport.bind("server-1", inbox.append)
        transport.send(_msg())
        # Crash before the in-flight message lands.
        lan.mark_down("server-1")
        sim.run()
        assert inbox == []
        assert transport.dropped_count == 1

    def test_unbound_destination_is_dropped(self, sim, transport):
        transport.send(_msg(dest="server-2"))
        sim.run()
        assert transport.dropped_count == 1

    def test_counters(self, sim, transport):
        transport.bind("server-1", lambda m: None)
        transport.send(_msg())
        transport.send(_msg())
        sim.run()
        assert transport.sent_count == 2
        assert transport.delivered_count == 2
        assert transport.dropped_count == 0


class TestMulticast:
    def test_multicast_reaches_every_destination(self, sim, transport):
        received = []
        transport.bind("server-1", lambda m: received.append(("s1", m)))
        transport.bind("server-2", lambda m: received.append(("s2", m)))
        delays = transport.multicast(_msg(dest=""), ["server-1", "server-2"])
        assert len(delays) == 2
        sim.run()
        assert sorted(tag for tag, _m in received) == ["s1", "s2"]
        # All copies share one logical message id.
        ids = {m.msg_id for _tag, m in received}
        assert len(ids) == 1

    def test_multicast_requires_destinations(self, transport):
        with pytest.raises(ValueError):
            transport.multicast(_msg(), [])

    def test_multicast_charges_group_overhead(self, sim, lan, streams):
        # With deterministic jitter, a bigger destination set means a
        # strictly larger per-copy delay.
        from repro.net.lan import LanModel, LinkProfile
        from repro.net.transport import Transport
        from repro.sim.random import Constant

        profile = LinkProfile(
            stack_ms=1.0, per_kb_ms=0.0, per_member_ms=0.5, jitter=Constant(0.0)
        )
        quiet = LanModel(streams, default_profile=profile)
        for name in ("c", "s1", "s2", "s3"):
            quiet.add_host(name)
        transport2 = Transport(sim, quiet)
        msg = Message(sender="c", destination="", kind="request")
        solo = transport2.multicast(msg, ["s1"])
        trio = transport2.multicast(msg, ["s1", "s2", "s3"])
        assert solo[0] == pytest.approx(1.0)
        assert all(d == pytest.approx(2.0) for d in trio)


# -- the message plane, pinned --------------------------------------------------


class _Inbox(ProtocolHandler):
    """Records what its gateway routed to it."""

    message_kinds = ("request", "push")

    def __init__(self, host, sim, log):
        self.host, self.sim, self.log = host, sim, log

    def handle_message(self, message):
        self.log.append((self.sim.now, self.host, message.msg_id))


PLANE_HOSTS = ("c", "s1", "s2", "s3", "s4", "s5", "s6", "s7")


class _RecordingTransport(Transport):
    """A transport that keeps one ``(time, kind, data)`` record per send
    and per delivery, its kind read from the outside of the plane: the
    LAN's link state before a send, the counters after it, and the
    destination's state before a delivery."""

    def __init__(self, sim, lan):
        super().__init__(sim, lan)
        self.records = []

    def _record(self, kind, message, **data):
        self.records.append((self.sim.now, kind, {**data, **message.describe()}))

    def send(self, message, group_size=1):
        lost = self.lost_count
        reachable = self.lan.reachable(message.sender, message.destination)
        delay = super().send(message, group_size)
        if self.lost_count == lost:
            self._record("net.sent", message, delay=delay)
        else:
            self._record("net.lost" if reachable else "net.partitioned", message)
        return delay

    def _deliver(self, message):
        if not self.lan.is_up(message.destination):
            self._record("net.dropped", message, reason="host-down")
        elif not self.is_bound(message.destination):
            self._record("net.dropped", message, reason="no-receiver")
        else:
            self._record("net.delivered", message)
        super()._deliver(message)


def run_scripted_plane():
    """Drive kernel + LAN + transport + one gateway per host from a script.

    Scripted rather than driven through the timing-fault handlers so
    that nothing but ``net`` and the kernel decides the order of sends.
    Returns ``(transport, streams, inbox)``.
    """
    reset_message_ids()
    sim = Simulator()
    streams = RNGManager(base_seed=2001)
    lan = LanModel(streams)
    for name in PLANE_HOSTS:
        lan.add_host(name)
    transport = _RecordingTransport(sim, lan)
    inbox = []
    for name in PLANE_HOSTS:
        Gateway(name, sim, transport).load_handler(
            _Inbox(name, sim, inbox)
        )
    servers = PLANE_HOSTS[1:]

    def push_round():
        # One reply's fan-out: seven unicasts constructed and sent in
        # one instant, so msg_id and kernel seq both follow this order.
        for server in servers:
            transport.send(
                Message(sender="c", destination=server, kind="push",
                        payload={"service": ""}, size_bytes=96)
            )

    # Overrides set before first use: a lossy link, and two links with no
    # jitter whose pushes therefore land on the same instant (seq decides).
    lan.set_link_profile("c", "s7", LinkProfile(loss_probability=0.5))
    still = LinkProfile(jitter=Constant(0.0))
    lan.set_link_profile("c", "s2", still)
    lan.set_link_profile("c", "s3", still)

    transport.multicast(
        Message(sender="s1", destination="", kind="request", payload={}),
        ["c", "s2", "s3"],
    )
    for _ in range(4):
        push_round()
    sim.run(until=5.0)

    # An override on a link that has already carried traffic.
    lan.set_link_profile(
        "c", "s1", LinkProfile(stack_ms=3.0, jitter=Exponential(0.4))
    )
    for _ in range(4):
        push_round()
    sim.run(until=10.0)

    lan.sever_link("c", "s4")
    push_round()
    lan.heal_link("c", "s4")
    push_round()
    sim.run(until=15.0)

    push_round()
    lan.mark_down("s5")  # six pushes in flight, one to a host now down
    transport.unbind("s6")
    sim.run(until=20.0)
    lan.mark_up("s5")
    push_round()
    sim.run()
    return transport, streams, inbox


def plane_digest(records):
    """sha256 over every ``net.*`` record, floats by ``repr``."""
    rows = [
        [repr(time), "transport", kind,
         sorted((key, repr(value)) for key, value in data.items())]
        for time, kind, data in records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestPlanePinned:
    """Bit-equality for the message plane, computed at PR 20's commit.

    The literals below were taken before ISSUE 21 touched ``net`` or the
    kernel; they hold only if every link draws from the same stream in
    the same order and every event keeps its ``(when, seq)``.
    """

    DIGEST = "3d546c56a7a4172049dac25826c78d372e796e6355396d09594abd493dd322d0"
    STREAMS = [
        "lan.c->s1", "lan.c->s2", "lan.c->s3", "lan.c->s4", "lan.c->s5",
        "lan.c->s6", "lan.c->s7", "lan.loss.c->s7",
        "lan.s1->c", "lan.s1->s2", "lan.s1->s3",
    ]
    KINDS = {
        "net.sent": 82, "net.lost": 4, "net.partitioned": 1,
        "net.delivered": 79, "net.dropped": 3,
    }

    def test_net_records_and_stream_names_are_pinned(self):
        transport, streams, inbox = run_scripted_plane()
        kinds = Counter(kind for _time, kind, _data in transport.records)
        assert dict(kinds) == self.KINDS
        assert sorted(key[0] for key in streams._streams) == self.STREAMS
        assert plane_digest(transport.records) == self.DIGEST
        # Every branch was walked: sent, lost, partitioned, both drops.
        assert (transport.sent_count, transport.lost_count) == (87, 5)
        assert (transport.delivered_count, transport.dropped_count) == (79, 3)
        assert len(inbox) == transport.delivered_count == kinds["net.delivered"]


class _SpyJitter(Constant):
    """Zero jitter that remembers which generator it was handed."""

    def __init__(self):
        super().__init__(0.0)
        self.rngs = []

    def sample(self, rng):
        self.rngs.append(rng)
        return super().sample(rng)


class TestLinkRecord:
    def test_override_after_first_send_applies_to_the_next_on_the_same_stream(
        self, sim, lan, streams, transport
    ):
        before, after = _SpyJitter(), _SpyJitter()
        lan.set_link_profile(
            "client-1", "server-1", LinkProfile(stack_ms=1.0, per_kb_ms=0.0, jitter=before)
        )
        assert transport.send(_msg()) == 1.0
        lan.set_link_profile(
            "client-1", "server-1", LinkProfile(stack_ms=7.0, per_kb_ms=0.0, jitter=after)
        )
        assert transport.send(_msg()) == 7.0
        assert transport.send(_msg()) == 7.0
        assert len(before.rngs) == 1 and len(after.rngs) == 2
        stream = streams.stream("lan.client-1->server-1")
        assert all(rng is stream for rng in before.rngs + after.rngs)

    def test_pair_first_used_after_an_override_resolves_to_it(self, lan, transport):
        transport.send(_msg())  # resolves client-1 -> server-1 only
        slow = LinkProfile(stack_ms=9.0, per_kb_ms=0.0, jitter=Constant(0.0))
        lan.set_link_profile("client-1", "server-2", slow)
        assert transport.send(_msg(dest="server-2")) == 9.0
        assert lan.link_profile("client-1", "server-1") is lan.default_profile

    def test_loss_turned_on_mid_run_starts_dropping(self, lan):
        assert not any(lan.should_drop("client-1", "server-1") for _ in range(50))
        lan.set_link_profile(
            "client-1", "server-1", LinkProfile(loss_probability=0.9)
        )
        drops = sum(lan.should_drop("client-1", "server-1") for _ in range(50))
        assert drops > 30
        assert lan.should_drop("server-1", "client-1") is False
