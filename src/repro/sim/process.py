"""Generator-based simulated processes.

A process is a Python generator that yields :class:`~repro.sim.events.Event`
objects.  Each ``yield`` suspends the process until the yielded event fires;
the event's value is sent back into the generator.  A process is itself an
event that fires with the generator's return value, which makes
``yield other_process`` a natural join.  An exception the generator does
not catch, like one raised by a timer callback, propagates out of
:meth:`Simulator.run`: a failing process stops the run.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def worker(sim):
...     yield sim.timeout(5.0)
...     return "done"
>>> proc = sim.spawn(worker(sim))
>>> sim.run()
>>> proc.value
'done'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import _PENDING, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Process"]


class Process(Event):
    """A running simulated activity driven by a generator.

    Fires (as an event) with the generator's return value when it
    finishes.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulated instant.
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed(None)

    @property
    def alive(self) -> bool:
        """``True`` while the generator has not finished."""
        return self._value is _PENDING

    def _resume(self, event: Event) -> None:
        try:
            target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances"
            )
        if target.sim is not self.sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event of another simulator"
            )
        target.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "finished"
        return f"<Process {self.name!r} {state}>"
