"""The windowed wire against the full-scan reference, send for send.

:class:`FaultyTransport` checks only the rules whose window covers the
send instant and keeps that subset until the clock leaves the interval it
holds for.  ``full_scan_wire.FullScanTransport`` checks every rule on
every send.  Both are driven here through one scripted run each, on the
same ``faultinject.wire`` seed, and must agree on every verdict, every
extra delay, every duplicate copy and every draw.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultinject import (
    DegradationFault,
    DelayRule,
    DropRule,
    DuplicateRule,
    FaultSchedule,
    FaultyTransport,
    PartitionFault,
)
from repro.net.message import Message
from repro.rng import RNGManager

from .full_scan_wire import FullScanTransport

HOSTS = ("a", "b", "c", "d")
KINDS = ("data", "tf-perf", "tf-probe")


class _Clock:
    """The wire's kernel: a settable ``now`` and a log of deferred sends."""

    def __init__(self) -> None:
        self.now = 0.0
        self.deferred: List[Tuple[float, Callable[[], None]]] = []

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        self.deferred.append((self.now + delay, callback))


class _Inner:
    """The transport under the wire: records what reaches it, and when."""

    def __init__(self) -> None:
        self.sim = _Clock()
        self.lan = None
        self.sent: List[Tuple[float, int, str, int]] = []

    def send(self, message: Message, group_size: int = 1) -> float:
        sent = (self.sim.now, message.msg_id, message.destination, group_size)
        self.sent.append(sent)
        return 0.0


def _wire(cls: type, schedule: FaultSchedule, seed: int) -> Any:
    wire = cls(_Inner(), RNGManager(seed))
    wire.schedule = schedule
    return wire


def _counters(wire: Any) -> Tuple[int, ...]:
    return (
        wire.injected_drops, wire.injected_delays, wire.injected_duplicates,
        wire.injected_degradation_drops, wire.injected_partition_drops,
    )


def _observe(wire: Any, sends: List[Tuple[float, Message, int]]) -> List[Any]:
    """Drive ``wire`` through ``sends``; everything it did, send by send."""
    clock, seen = wire.sim, []
    for now, message, group_size in sends:
        clock.now = now
        extra = wire.send(message, group_size)
        seen.append(
            (extra, _counters(wire), len(clock.deferred),
             str(wire.rng.bit_generator.state))
        )
    for due, callback in clock.deferred:
        clock.now = due
        callback()
    clock.deferred.clear()
    seen.append(list(wire.inner.sent))
    return seen


# -- schedules ---------------------------------------------------------------

# Window edges and send instants share one half-millisecond grid, so sends
# land on the very instants windows open and close.
instants = st.integers(0, 240).map(lambda k: k * 0.5)
lengths = st.integers(1, 80).map(lambda k: k * 0.5)
host = st.sampled_from(HOSTS)
maybe_host = st.one_of(st.none(), host)
maybe_kinds = st.one_of(
    st.none(), st.sampled_from([("data",), ("tf-perf", "tf-probe")])
)
probability = st.sampled_from([1.0, 0.3, 0.7])


@st.composite
def message_rule(draw: st.DrawFn, cls: type, **fields: st.SearchStrategy) -> Any:
    start = draw(instants)
    return cls(
        start_ms=start, end_ms=start + draw(lengths), kinds=draw(maybe_kinds),
        src=draw(maybe_host), dst=draw(maybe_host),
        **{name: draw(strategy) for name, strategy in fields.items()},
    )


@st.composite
def degradation(draw: st.DrawFn) -> DegradationFault:
    start = draw(instants)
    omission = draw(st.sampled_from([0.0, 0.4, 1.0]))
    slow = 2.0 if omission == 0.0 else draw(st.sampled_from([1.0, 2.0]))
    return DegradationFault(
        draw(host), start, start + draw(lengths), slow_factor=slow,
        omission_probability=omission,
    )


@st.composite
def partition(draw: st.DrawFn) -> PartitionFault:
    start = draw(instants)
    side = draw(st.lists(host, min_size=1, max_size=2, unique=True))
    return PartitionFault(
        side=tuple(side), start_ms=start, end_ms=start + draw(lengths),
        mode=draw(st.sampled_from(["symmetric", "outbound", "inbound"])),
        drop_probability=draw(st.sampled_from([1.0, 0.5])),
        flap_period_ms=draw(st.sampled_from([None, 7.0, 10.0])),
        flap_duty=draw(st.sampled_from([0.5, 0.3])),
        exempt_kinds=draw(st.sampled_from([(), ("tf-probe",)])),
    )


def _rules(strategy: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(strategy, max_size=4).map(tuple)


schedules = st.builds(
    FaultSchedule,
    drops=_rules(message_rule(DropRule, probability=probability)),
    delays=_rules(
        message_rule(DelayRule, extra_ms=st.sampled_from([0.0, 2.5, 10.0]))
    ),
    duplicates=_rules(
        message_rule(
            DuplicateRule, probability=probability,
            copies=st.integers(1, 3), late_by_ms=st.sampled_from([0.0, 1.5]),
        )
    ),
    degradations=_rules(degradation()),
    partitions=_rules(partition()),
)


@st.composite
def send_scripts(draw: st.DrawFn) -> List[Tuple[float, str, str, str, int]]:
    """Nondecreasing send instants, with ties, and who sends what."""
    now, script = 0.0, []
    for gap in draw(st.lists(st.integers(0, 12), min_size=1, max_size=40)):
        now += gap * 0.5
        sender = draw(host)
        destination = draw(host.filter(lambda h, s=sender: h != s))
        script.append(
            (now, sender, destination, draw(st.sampled_from(KINDS)),
             draw(st.integers(1, 3)))
        )
    return script


def _messages(script: List[Any]) -> List[Tuple[float, Message, int]]:
    """One envelope per scripted send, each with its own explicit id."""
    return [
        (now, Message(sender, destination, kind, None, 64, index), group_size)
        for index, (now, sender, destination, kind, group_size)
        in enumerate(script, 1)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(schedules, send_scripts(), st.integers(0, 3))
def test_windowed_wire_equals_the_full_scan(schedule, script, seed):
    sends = _messages(script)
    windowed = _observe(_wire(FaultyTransport, schedule, seed), sends)
    assert windowed == _observe(_wire(FullScanTransport, schedule, seed), sends)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(schedules, schedules, send_scripts(), st.integers(0, 3))
def test_a_schedule_swapped_mid_run_equals_the_full_scan(first, second, script, seed):
    sends = _messages(script)
    half = len(sends) // 2

    def run(cls: type) -> List[Any]:
        wire = _wire(cls, first, seed)
        seen = _observe(wire, sends[:half])
        wire.schedule = second
        return seen + _observe(wire, sends[half:])

    assert run(FaultyTransport) == run(FullScanTransport)


def test_reassigning_the_schedule_takes_effect_at_once():
    # The wire at 5.0 knows nothing opens before 50.0; a schedule handed
    # over at 6.0 must still be read at 6.0.
    later = FaultSchedule(drops=(DropRule(start_ms=50.0, end_ms=60.0),))
    wire = _wire(FaultyTransport, later, seed=0)
    message = Message("a", "b", "data", None, 64, 1)
    wire.sim.now = 5.0
    wire.send(message)
    wire.sim.now = 6.0
    wire.schedule = FaultSchedule(drops=(DropRule(start_ms=0.0, end_ms=100.0),))
    wire.send(message)
    wire.schedule = FaultSchedule()
    wire.send(message)
    assert wire.injected_drops == 1
    assert wire.inner.sent == [(5.0, 1, "b", 1), (6.0, 1, "b", 1)]
