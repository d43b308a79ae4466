"""Unit tests for the event primitives."""

import pytest

from repro.sim.events import SimulationError


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.processed
        assert repr(event) == "<Event state=pending>"
        event.succeed()
        assert repr(event) == "<Event state=triggered>" and not event.processed

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_carries_value(self, sim):
        event = sim.event().succeed(42)
        assert event.ok and event.value == 42  # readable once triggered
        sim.run()
        assert event.processed
        assert repr(event) == "<Event state=processed>"
        assert event.ok
        assert event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event().succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.event().succeed(1, delay=-1.0)

    def test_succeed_with_delay_fires_later(self, sim):
        event = sim.event().succeed("late", delay=10.0)
        sim.run()
        assert sim.now == 10.0
        assert event.value == "late"


class TestCallbacks:
    def test_callback_runs_on_processing(self, sim):
        seen = []
        event = sim.event()
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("x")
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event().succeed("y")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["y"]

    def test_callbacks_run_in_registration_order(self, sim):
        order = []
        event = sim.event()
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed(None)
        sim.run()
        assert order == [1, 2]


class TestTimeout:
    def test_fires_at_the_right_instant(self, sim):
        timeout = sim.timeout(25.0)
        sim.run()
        assert sim.now == 25.0
        assert timeout.processed and timeout.value is None

    def test_zero_delay_is_allowed(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)
