"""Regression tests for the kernel's :class:`EventQueue`.

Its ordering contract is *bit-for-bit* compatibility with a plain
``heapq`` of ``(when, seq, daemon, event)`` tuples: pops come out in
ascending ``(when, seq)``, with the sequence number assigned in push
order — so events scheduled for the same instant dispatch strictly FIFO.
The tests here replay dense same-tick schedules against an inline
tuple-heap reference to lock that contract down.
"""

import heapq
import random

import pytest

from repro.sim.events import SimulationError
from repro.sim.kernel import EventQueue, Simulator


class _StubEvent:
    """Minimal stand-in: the queue never looks inside an event."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label


class _ReferenceQueue:
    """The tuple heap whose pop order the queue must reproduce."""

    def __init__(self):
        self._heap = []
        self._seq = 0

    def push(self, when, event, daemon=False):
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, daemon, event))

    def pop(self):
        when, _seq, daemon, event = heapq.heappop(self._heap)
        return when, event, daemon

    def __len__(self):
        return len(self._heap)


def test_time_key_preserves_float_order():
    # Pop order is float order over the whole line — negative instants,
    # infinities, neighbours one ulp apart — and the two zeros tie, so
    # they fall to the sequence number like any other equal instants.
    instants = [
        0.0, -0.0, 1e-12, 0.1, 0.1 + 1e-16, 1.0, 1.5, 2.0, 1e9, 1e300,
        -1e-12, -1.0, -1e9, float("inf"), float("-inf"),
    ]
    queue = EventQueue()
    for index, when in enumerate(instants):
        queue.push(when, _StubEvent(index))
    popped = [queue.pop() for _ in instants]
    assert [event.label for _when, event, _daemon in popped] == sorted(
        range(len(instants)), key=lambda index: (instants[index], index)
    )
    assert [when for when, _event, _daemon in popped] == sorted(instants)


def test_fifo_on_identical_timestamps():
    queue = EventQueue()
    events = [_StubEvent(i) for i in range(100)]
    for event in events:
        queue.push(5.0, event)
    popped = [queue.pop()[1].label for _ in range(len(events))]
    assert popped == list(range(100))


def test_dense_same_tick_schedule_matches_heapq_reference():
    """Replay a dense schedule with many tied instants against heapq.

    Timestamps are drawn from a tiny set so nearly every push ties with
    earlier ones — the regime where only the FIFO sequence number decides
    the order and any tie-break drift shows immediately.
    """
    rng = random.Random(0xC0FFEE)
    queue = EventQueue()
    reference = _ReferenceQueue()
    ticks = [0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.25]
    counter = 0
    for _round in range(2000):
        action = rng.random()
        if action < 0.6 or not len(queue):
            when = rng.choice(ticks)
            daemon = rng.random() < 0.3
            event = _StubEvent(counter)
            counter += 1
            queue.push(when, event, daemon)
            reference.push(when, event, daemon)
        else:
            assert queue.pop() == reference.pop()
    while len(reference):
        assert queue.pop() == reference.pop()
    assert len(queue) == 0


def test_pop_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_peek_when_tracks_heap_top():
    queue = EventQueue()
    assert queue.peek_when() == float("inf")
    queue.push(3.0, _StubEvent("late"))
    queue.push(1.0, _StubEvent("early"))
    assert queue.peek_when() == 1.0
    queue.pop()
    assert queue.peek_when() == 3.0


def test_simulator_same_instant_fifo_with_nested_scheduling():
    """End-to-end: same-tick callbacks fire in scheduling order, even
    when callbacks schedule more work *at the current instant*."""
    sim = Simulator()
    order = []

    def nested():
        order.append("nested")

    def first():
        order.append("first")
        sim.call_in(0.0, nested)  # lands behind 'second' (later seq)

    def second():
        order.append("second")

    sim.call_in(1.0, first)
    sim.call_in(1.0, second)
    sim.run()
    assert order == ["first", "second", "nested"]
