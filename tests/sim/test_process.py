"""Unit tests for generator-based processes."""

import pytest

from repro.sim.events import Event, SimulationError
from repro.sim.kernel import Simulator


def test_process_returns_generator_return_value(sim):
    def worker(sim):
        yield sim.timeout(5.0)
        return "done"

    proc = sim.spawn(worker(sim), name="w")
    assert repr(proc) == "<Process 'w' alive>"
    sim.run()
    assert proc.value == "done"
    assert not proc.alive and repr(proc) == "<Process 'w' finished>"


def test_process_receives_event_values(sim):
    def worker(sim):
        value = yield Event(sim).succeed("tick", 1.0)
        return value

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "tick"


def test_uncaught_exception_stops_the_run(sim):
    # As for a timer callback: the error leaves run() at the failing
    # instant, and the process never fires.
    def worker(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    proc = sim.spawn(worker(sim))
    later = sim.timeout(5.0)
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()
    assert sim.now == 1.0 and proc.alive and not later.processed


def test_joining_another_process(sim):
    def child(sim):
        yield sim.timeout(3.0)
        return 7

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return result * 2

    proc = sim.spawn(parent(sim))
    sim.run()
    assert proc.value == 14


def test_spawn_requires_generator(sim):
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_yielding_a_non_event_stops_the_run(sim):
    def worker(sim):
        yield sim.timeout(2.0)
        yield 42

    proc = sim.spawn(worker(sim))
    with pytest.raises(SimulationError, match="yielded 42"):
        sim.run()
    assert sim.now == 2.0 and proc.alive


def test_yielding_foreign_event_raises(sim):
    other = Simulator()

    def worker(sim):
        yield other.timeout(1.0)

    sim.spawn(worker(sim))
    with pytest.raises(SimulationError, match="another simulator"):
        sim.run()


def test_two_processes_interleave_by_time(sim):
    log = []

    def worker(sim, name, delay):
        for _ in range(3):
            yield sim.timeout(delay)
            log.append((name, sim.now))

    sim.spawn(worker(sim, "fast", 1.0))
    sim.spawn(worker(sim, "slow", 2.5))
    sim.run()
    assert log == [
        ("fast", 1.0),
        ("fast", 2.0),
        ("slow", 2.5),
        ("fast", 3.0),
        ("slow", 5.0),
        ("slow", 7.5),
    ]
