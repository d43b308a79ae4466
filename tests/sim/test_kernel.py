"""Unit tests for the simulation kernel (clock, heap, daemon events)."""

import math

import pytest

from repro.sim.events import SimulationError
from repro.sim.kernel import Simulator


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_time_advances_to_event_instants(self, sim):
        sim.timeout(3.0)
        sim.timeout(7.0)
        sim.step()
        assert sim.now == 3.0
        sim.step()
        assert sim.now == 7.0

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

    def test_step_on_empty_heap_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek_reports_next_instant(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0


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
        assert [entry[3] for entry in sim._queue._heap] == [callback]
        assert sim.pending_live == 1 and sim.peek() == 2.5
        sim.run()
        assert fired == [2.5]
        assert sim.pending_live == 0 and sim.processed_events == 1
        assert sim.peek() == float("inf")

    def test_call_in_negative_delay_raises(self, sim):
        with pytest.raises(ValueError):
            sim.call_in(-0.001, lambda: None)
        assert sim.pending_live == 0 and sim.peek() == float("inf")

    def test_a_nan_instant_or_delay_is_refused_before_anything_is_queued(self, sim):
        nan = float("nan")
        sim.call_in(1.0, lambda: None)
        for schedule, error in (
            (lambda: sim.call_in(nan, lambda: None), ValueError),
            (lambda: sim.timeout(nan), ValueError),
            (lambda: sim.event().succeed(delay=nan), ValueError),
            (lambda: sim.event().fail(RuntimeError(), delay=nan), ValueError),
            (lambda: sim.call_at(nan, lambda: None), SimulationError),
            (lambda: sim.call_at_exact(nan, lambda: None), SimulationError),
            (lambda: sim.run(until=nan), SimulationError),
        ):
            with pytest.raises(error):
                schedule()
        assert len(sim._queue) == 1 and sim.pending_live == 1
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
    def test_step_counts_the_entry_and_its_liveness(self, sim):
        seen = []
        sim.call_in(1.0, lambda: seen.append(1))
        sim.call_in(2.0, lambda: seen.append(2), daemon=True)
        sim.step()
        assert (sim.now, sim.processed_events, sim.pending_live, seen) == (1.0, 1, 0, [1])
        sim.step()
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
