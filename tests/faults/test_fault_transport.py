"""Unit tests for the message-level fault injector (FaultyTransport)."""

import pytest

from repro.faultinject import (
    ChurnFault,
    CrashRestartFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultSchedule,
    FaultyTransport,
    random_fault_schedule,
)
from repro.net.lan import LanModel, LinkProfile
from repro.net.message import Message
from repro.net.transport import Transport
from repro.rng import RNGManager
from repro.sim.kernel import Simulator
from repro.sim.random import Constant


class Wire:
    """Three hosts on a deterministic 1 ms LAN behind a FaultyTransport."""

    def __init__(self, schedule=FaultSchedule(), fault_seed=0):
        self.sim = Simulator()
        streams = RNGManager(base_seed=0)
        profile = LinkProfile(
            stack_ms=1.0, per_kb_ms=0.0, per_member_ms=0.0, jitter=Constant(0.0)
        )
        self.lan = LanModel(streams, default_profile=profile)
        self.inner = Transport(self.sim, self.lan)
        self.transport = FaultyTransport(self.inner, RNGManager(fault_seed))
        self.transport.schedule = schedule
        self.received = {}
        for host in ("a", "b", "c"):
            self.lan.add_host(host)
            arrivals = []
            self.received[host] = arrivals
            self.transport.bind(
                host, lambda m, a=arrivals: a.append((self.sim.now, m))
            )


def _msg(sender="a", destination="b", kind="data"):
    return Message(
        sender=sender, destination=destination, kind=kind, payload=None,
        size_bytes=64,
    )


def test_clean_passthrough():
    wire = Wire()
    message = _msg()
    wire.transport.send(message)
    wire.sim.run()
    assert [(t, m.msg_id) for t, m in wire.received["b"]] == [
        (1.0, message.msg_id)
    ]
    assert wire.transport.sent_count == 1
    assert wire.transport.delivered_count == 1
    assert wire.transport.injected_drops == 0


def test_drop_rule_loses_matching_message():
    wire = Wire(FaultSchedule(drops=(DropRule(start_ms=0.0, end_ms=100.0),)))
    wire.transport.send(_msg())
    wire.sim.run()
    assert wire.received["b"] == []
    assert wire.transport.injected_drops == 1
    # The inner transport never saw the message at all.
    assert wire.inner.sent_count == 0


def test_drop_rule_window_is_half_open():
    wire = Wire(FaultSchedule(drops=(DropRule(start_ms=10.0, end_ms=20.0),)))
    wire.transport.send(_msg())  # t=0: before the window
    wire.sim.call_at(15.0, lambda: wire.transport.send(_msg()))  # inside
    wire.sim.call_at(20.0, lambda: wire.transport.send(_msg()))  # at end: out
    wire.sim.run()
    assert [t for t, _ in wire.received["b"]] == [1.0, 21.0]
    assert wire.transport.injected_drops == 1


def test_drop_rule_filters_by_kind_src_dst():
    schedule = FaultSchedule(
        drops=(
            DropRule(start_ms=0.0, end_ms=100.0, kinds=("x",)),
            DropRule(start_ms=0.0, end_ms=100.0, src="c"),
            DropRule(start_ms=0.0, end_ms=100.0, dst="c"),
        )
    )
    wire = Wire(schedule)
    wire.transport.send(_msg(kind="y"))  # survives every filter
    wire.transport.send(_msg(kind="x"))  # dropped by kind
    wire.transport.send(_msg(sender="c", destination="b"))  # dropped by src
    wire.transport.send(_msg(destination="c"))  # dropped by dst
    wire.sim.run()
    assert len(wire.received["b"]) == 1
    assert wire.received["c"] == []
    assert wire.transport.injected_drops == 3


def test_probabilistic_drop_is_seeded_and_partial():
    schedule = FaultSchedule(
        drops=(DropRule(start_ms=0.0, end_ms=1e9, probability=0.5),)
    )
    wire = Wire(schedule, fault_seed=42)
    for _ in range(200):
        wire.transport.send(_msg())
    wire.sim.run()
    delivered = len(wire.received["b"])
    assert delivered + wire.transport.injected_drops == 200
    assert 60 <= delivered <= 140  # ~Binomial(200, 0.5)


def test_delay_rule_postpones_transmission():
    wire = Wire(FaultSchedule(delays=(DelayRule(start_ms=0.0, end_ms=100.0, extra_ms=25.0),)))
    extra = wire.transport.send(_msg())
    wire.sim.run()
    assert extra == pytest.approx(25.0)
    assert [t for t, _ in wire.received["b"]] == [26.0]
    assert wire.transport.injected_delays == 1


def test_matching_delay_rules_sum():
    schedule = FaultSchedule(
        delays=(
            DelayRule(start_ms=0.0, end_ms=100.0, extra_ms=10.0),
            DelayRule(start_ms=0.0, end_ms=100.0, extra_ms=5.0),
        )
    )
    wire = Wire(schedule)
    assert wire.transport.send(_msg()) == pytest.approx(15.0)
    wire.sim.run()
    assert [t for t, _ in wire.received["b"]] == [16.0]


def test_duplicate_rule_delivers_late_copies_with_same_msg_id():
    schedule = FaultSchedule(
        duplicates=(
            DuplicateRule(start_ms=0.0, end_ms=100.0, copies=2, late_by_ms=5.0),
        )
    )
    wire = Wire(schedule)
    message = _msg()
    wire.transport.send(message)
    wire.sim.run()
    times = sorted(t for t, _ in wire.received["b"])
    assert times == [1.0, 6.0, 6.0]
    assert {m.msg_id for _, m in wire.received["b"]} == {message.msg_id}
    assert wire.transport.injected_duplicates == 2


def test_drop_wins_over_delay_and_duplicate():
    schedule = FaultSchedule(
        drops=(DropRule(start_ms=0.0, end_ms=100.0),),
        delays=(DelayRule(start_ms=0.0, end_ms=100.0, extra_ms=10.0),),
        duplicates=(DuplicateRule(start_ms=0.0, end_ms=100.0),),
    )
    wire = Wire(schedule)
    wire.transport.send(_msg())
    wire.sim.run()
    assert wire.received["b"] == []
    assert wire.transport.injected_drops == 1
    assert wire.transport.injected_delays == 0
    assert wire.transport.injected_duplicates == 0


def test_multicast_applies_rules_per_destination():
    wire = Wire(FaultSchedule(drops=(DropRule(start_ms=0.0, end_ms=100.0, dst="b"),)))
    message = _msg(destination="")
    wire.transport.multicast(message, ["b", "c"])
    wire.sim.run()
    assert wire.received["b"] == []
    assert [m.msg_id for _, m in wire.received["c"]] == [message.msg_id]
    assert wire.transport.injected_drops == 1


def test_multicast_rejects_empty_destinations():
    wire = Wire()
    with pytest.raises(ValueError):
        wire.transport.multicast(_msg(), [])


def test_rule_validation():
    with pytest.raises(ValueError):
        DropRule(start_ms=5.0, end_ms=5.0)
    with pytest.raises(ValueError):
        DropRule(start_ms=-1.0, end_ms=5.0)
    with pytest.raises(ValueError):
        DropRule(start_ms=0.0, end_ms=5.0, probability=0.0)
    with pytest.raises(ValueError):
        DelayRule(start_ms=0.0, end_ms=5.0, extra_ms=-1.0)
    with pytest.raises(ValueError):
        DuplicateRule(start_ms=0.0, end_ms=5.0, copies=0)
    with pytest.raises(ValueError):
        DuplicateRule(start_ms=0.0, end_ms=5.0, late_by_ms=-1.0)
    with pytest.raises(ValueError):
        CrashRestartFault(host="h", crash_at_ms=10.0, restart_at_ms=10.0)
    with pytest.raises(ValueError):
        ChurnFault(member="h", leave_at_ms=10.0, rejoin_at_ms=5.0)


def test_schedule_merge_and_len():
    first = FaultSchedule(drops=(DropRule(start_ms=0.0, end_ms=1.0),))
    second = FaultSchedule(
        delays=(DelayRule(start_ms=0.0, end_ms=1.0, extra_ms=2.0),),
        crashes=(CrashRestartFault(host="h", crash_at_ms=1.0),),
    )
    merged = first.merged(second)
    assert len(first) == 1
    assert len(second) == 2
    assert len(merged) == 3
    assert merged.drops == first.drops
    assert merged.crashes == second.crashes


def test_random_fault_schedule_shape():
    rng = RNGManager(3)
    replicas = ["r1", "r2", "r3"]
    schedule = random_fault_schedule(rng, horizon_ms=1000.0, replicas=replicas)
    assert len(schedule.drops) == 3
    assert len(schedule.delays) == 2
    assert len(schedule.duplicates) == 2
    assert len(schedule.crashes) == 2
    assert len(schedule.churn) == 2
    for rule in schedule.drops + schedule.delays + schedule.duplicates:
        assert 0.0 <= rule.start_ms < rule.end_ms
    for fault in schedule.crashes:
        assert fault.host in replicas
        assert fault.restart_at_ms is not None
        assert fault.restart_at_ms > fault.crash_at_ms
    for fault in schedule.churn:
        assert fault.member in replicas
        assert fault.rejoin_at_ms is not None
        assert fault.rejoin_at_ms > fault.leave_at_ms


def test_random_fault_schedule_validation():
    rng = RNGManager(0)
    with pytest.raises(ValueError):
        random_fault_schedule(rng, horizon_ms=0.0, replicas=["r1"])
    with pytest.raises(ValueError):
        random_fault_schedule(rng, horizon_ms=100.0, replicas=[])
