"""Unit tests for the simulation kernel (clock, heap, daemon events).

The heap's ordering contract is *bit-for-bit* compatibility with a plain
``heapq`` of ``(when, seq, daemon, fn)`` tuples: entries fire in
ascending ``(when, seq)``, with the sequence number assigned in push
order, so entries scheduled for the same instant dispatch strictly FIFO.
"""

import heapq
import math
import random

import pytest

from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_time_advances_to_event_instants(self, sim):
        seen = []
        sim.timeout(3.0).add_callback(lambda e: seen.append(sim.now))
        sim.timeout(7.0).add_callback(lambda e: seen.append(sim.now))
        sim.run()
        assert seen == [3.0, 7.0] and sim.now == 7.0

    def test_same_instant_events_fire_fifo(self, sim):
        order = []
        first = sim.timeout(5.0)
        second = sim.timeout(5.0)
        first.add_callback(lambda e: order.append("first"))
        second.add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]


class TestRun:
    def test_run_drains_the_heap(self, sim):
        sim.timeout(1.0)
        sim.timeout(2.0)
        sim.run()
        assert sim.processed_events == 2

    def test_run_until_stops_at_horizon(self, sim):
        fired = []
        sim.call_in(5.0, lambda: fired.append(5))
        sim.call_in(15.0, lambda: fired.append(15))
        sim.run(until=10.0)
        assert fired == [5]
        assert sim.now == 10.0

    def test_run_until_composes(self, sim):
        fired = []
        sim.call_in(5.0, lambda: fired.append(5))
        sim.call_in(15.0, lambda: fired.append(15))
        sim.run(until=10.0)
        sim.run(until=20.0)
        assert fired == [5, 15]
        assert sim.now == 20.0

    def test_run_until_in_the_past_raises(self, sim):
        sim.call_in(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_a_raising_callback_stops_the_run_at_its_instant(self, sim):
        def boom():
            raise KeyError("boom")

        sim.call_in(2.0, boom)
        sim.call_in(3.0, lambda: None)
        with pytest.raises(KeyError):
            sim.run()
        assert sim.now == 2.0 and sim.pending_live == 1
        sim.run()  # the rest of the heap is intact
        assert sim.now == 3.0 and sim.processed_events == 2


class TestDaemonEvents:
    def test_daemon_alone_does_not_keep_run_alive(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.call_in(10.0, tick, daemon=True)

        sim.call_in(10.0, tick, daemon=True)
        sim.run()  # must terminate despite the endless daemon chain
        assert ticks == []

    def test_daemon_fires_while_live_work_remains(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.call_in(10.0, tick, daemon=True)

        sim.call_in(10.0, tick, daemon=True)
        sim.timeout(35.0)  # live work until t=35
        sim.run()
        assert ticks == [10.0, 20.0, 30.0]

    def test_daemon_fires_up_to_bounded_horizon(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.call_in(10.0, tick, daemon=True)

        sim.call_in(10.0, tick, daemon=True)
        sim.run(until=45.0)
        assert ticks == [10.0, 20.0, 30.0, 40.0]
        assert sim.now == 45.0

    def test_pending_live_counts_only_live_events(self, sim):
        sim.call_in(5.0, lambda: None, daemon=True)
        assert sim.pending_live == 0
        sim.timeout(1.0)
        assert sim.pending_live == 1


class TestCallHelpers:
    def test_call_in_fires_its_callback_once_and_returns_none(self, sim):
        fired = []

        def callback():
            fired.append(sim.now)

        assert sim.call_in(2.5, callback) is None
        # The heap entry's payload is the callback itself, not an Event.
        assert [entry[3] for entry in sim._heap] == [callback]
        assert sim.pending_live == 1 and sim._heap[0][0] == 2.5
        sim.run()
        assert fired == [2.5]
        assert sim.pending_live == 0 and sim.processed_events == 1
        assert not sim._heap

    def test_call_in_negative_delay_raises(self, sim):
        with pytest.raises(ValueError):
            sim.call_in(-0.001, lambda: None)
        assert sim.pending_live == 0 and not sim._heap

    def test_a_nan_instant_or_delay_is_refused_before_anything_is_queued(self, sim):
        nan = float("nan")
        sim.call_in(1.0, lambda: None)
        for schedule, error in (
            (lambda: sim.call_in(nan, lambda: None), ValueError),
            (lambda: sim.timeout(nan), ValueError),
            (lambda: sim.event().succeed(delay=nan), ValueError),
            (lambda: sim.call_at(nan, lambda: None), SimulationError),
            (lambda: sim.call_at_exact(nan, lambda: None), SimulationError),
            (lambda: sim.run(until=nan), SimulationError),
        ):
            with pytest.raises(error):
                schedule()
        assert len(sim._heap) == 1 and sim.pending_live == 1
        sim.run()
        assert sim.now == 1.0

    def test_call_in_daemon_is_never_counted_live(self, sim):
        seen = []
        sim.call_in(5.0, lambda: seen.append("daemon"), daemon=True)
        assert sim.pending_live == 0
        sim.call_in(9.0, lambda: seen.append("live"))
        assert sim.pending_live == 1
        sim.run()
        assert seen == ["daemon", "live"] and sim.pending_live == 0

    def test_call_at_runs_at_absolute_time(self, sim):
        seen = []
        sim.call_at(12.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.5]

    def test_call_at_in_past_raises(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(5.0, lambda: None)

    def test_call_at_exact_fires_on_the_float_it_was_given(self, sim):
        # From now = 0.2, call_at reaches 0.9 through a delay and lands
        # one ulp low; call_at_exact pushes 0.9 itself.
        seen = []
        sim.call_at(0.2, lambda: sim.call_at(0.9, lambda: seen.append(sim.now)))
        sim.call_at(0.2, lambda: sim.call_at_exact(0.9, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [0.2 + (0.9 - 0.2), 0.9]
        assert seen[0] < seen[1]

    def test_call_at_exact_is_fifo_among_equal_instants(self, sim):
        seen = []
        sim.call_at(5.0, lambda: seen.append("at"))
        sim.call_at_exact(5.0, lambda: seen.append("exact"))
        sim.call_in(5.0, lambda: seen.append("in"))
        sim.run()
        assert seen == ["at", "exact", "in"]

    def test_call_at_exact_in_past_raises(self, sim):
        sim.timeout(10.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at_exact(5.0, lambda: None)

    def test_call_at_exact_daemon_does_not_keep_run_alive(self, sim):
        seen = []
        sim.call_at_exact(50.0, lambda: seen.append(sim.now), daemon=True)
        assert sim.pending_live == 0
        sim.run()
        assert seen == [] and sim.now == 0.0
        sim.call_at_exact(20.0, lambda: seen.append(sim.now))
        assert sim.pending_live == 1
        sim.run(until=100.0)
        assert seen == [20.0, 50.0]
        assert sim.pending_live == 0


class TestBoundaries:
    def test_run_counts_the_entry_and_its_liveness(self, sim):
        seen = []
        sim.call_in(1.0, lambda: seen.append(1))
        sim.call_in(2.0, lambda: seen.append(2), daemon=True)
        sim.run(until=1.0)
        assert (sim.now, sim.processed_events, sim.pending_live, seen) == (1.0, 1, 0, [1])
        sim.run(until=2.0)
        assert (sim.now, sim.processed_events, sim.pending_live, seen) == (2.0, 2, 0, [1, 2])

    def test_the_present_instant_is_schedulable(self, sim):
        seen = []
        sim.call_at(0.0, lambda: seen.append("at"))
        sim.call_at_exact(0.0, lambda: seen.append("exact"))
        sim.run(until=0.0)  # a horizon at now is not in the past
        assert seen == ["at", "exact"] and sim.now == 0.0

    def test_an_entry_due_at_the_horizon_fires(self, sim):
        seen = []
        sim.call_in(10.0, lambda: seen.append(sim.now))
        sim.run(until=10.0)
        assert seen == [10.0]

    def test_the_clock_never_reads_negative_zero(self, sim):
        sim.call_at_exact(-0.0, lambda: None)
        sim.run()
        assert math.copysign(1.0, sim.now) == 1.0

    def test_repr_names_the_clock_and_the_counts(self, sim):
        sim.call_in(1.0, lambda: None)
        assert repr(sim) == "<Simulator now=0.000ms pending=1 processed=0>"


class TestQueueOrder:
    def test_time_key_preserves_float_order(self):
        # Firing order is float order over the whole line — negative
        # instants, infinities, neighbours one ulp apart — and the two
        # zeros tie, so they fall to the sequence number like any other
        # equal instants.
        instants = [
            0.0, -0.0, 1e-12, 0.1, 0.1 + 1e-16, 1.0, 1.5, 2.0, 1e9, 1e300,
            -1e-12, -1.0, -1e9, float("inf"), float("-inf"),
        ]
        sim = Simulator(start_time=float("-inf"))
        fired = []
        for index, when in enumerate(instants):
            sim.call_at_exact(when, lambda index=index: fired.append((index, sim.now)))
        sim.run()
        assert [index for index, _now in fired] == sorted(
            range(len(instants)), key=lambda index: (instants[index], index)
        )
        assert [now for _index, now in fired] == sorted(instants)

    def test_fifo_on_identical_timestamps(self, sim):
        fired = []
        for index in range(100):
            sim.call_in(5.0, lambda index=index: fired.append(index))
        sim.run()
        assert fired == list(range(100))

    def test_dense_same_tick_schedule_matches_heapq_reference(self, sim):
        """Replay a dense schedule with many tied instants against heapq.

        Delays are drawn from a tiny set so nearly every entry ties with
        earlier ones — the regime where only the FIFO sequence number
        decides the order and any tie-break drift shows immediately.
        Entries are pushed both up front and from inside firing ones.
        """
        rng = random.Random(0xC0FFEE)
        reference, seq, fired, expected = [], 0, [], []
        delays = [0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.25]

        def push(label):
            nonlocal seq
            delay, daemon = rng.choice(delays), rng.random() < 0.3
            seq += 1
            heapq.heappush(reference, (sim.now + delay, seq, daemon, label))
            sim.call_in(delay, lambda: fire(label), daemon)

        def fire(label):
            fired.append((sim.now, label))
            for child in range(rng.randrange(3) if label < 1500 else 0):
                push(label * 3 + child + 1)

        for label in range(200):
            push(label)
        sim.run(until=float("inf"))  # daemons included
        # Every entry is pushed at or after the instant firing, so the
        # reference's pop order over all of them is the kernel's order.
        while reference:
            when, _seq, _daemon, label = heapq.heappop(reference)
            expected.append((when, label))
        assert fired == expected and len(fired) > 400

    def test_simulator_same_instant_fifo_with_nested_scheduling(self, sim):
        """Same-tick callbacks fire in scheduling order, even when
        callbacks schedule more work *at the current instant*."""
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
