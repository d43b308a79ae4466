"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronization point.  Processes wait on
events by yielding them; the kernel resumes every waiter when the event
fires.  An event only ever *succeeds*, carrying a value: an error in
simulated code is raised out of :meth:`Simulator.run`, not delivered as
an event.

A triggered event puts its bound ``_run_callbacks`` on the kernel's heap;
a fire-and-forget timer (``Simulator.call_in`` and friends) puts its
callback there directly, with no event around it.  Everything that
"happens" in the simulation reduces to one such call at a simulated
instant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .kernel import Simulator

__all__ = ["Event", "SimulationError"]

#: ``_value`` of an event that has not been triggered.
_PENDING: Any = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Event:
    """A one-shot occurrence at a simulated instant.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator
        and may not be shared across kernels.
    """

    __slots__ = ("sim", "callbacks", "_value", "processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        #: ``True`` once all callbacks have run.
        self.processed = False

    # -- inspection ----------------------------------------------------
    @property
    def ok(self) -> bool:
        """``True`` once triggered: an event cannot fail."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return True

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with ``value`` after ``delay``."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not delay >= 0:  # (NaN included)
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._value = value
        sim = self.sim
        sim._push(sim._now + delay, self._run_callbacks)
        return self

    def _run_callbacks(self) -> None:
        """Invoked by the kernel when the event's instant arrives."""
        callbacks, self.callbacks = self.callbacks, []
        self.processed = True
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already fired."""
        if self.processed:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        if self.processed:
            state = "processed"
        else:
            state = "pending" if self._value is _PENDING else "triggered"
        return f"<{type(self).__name__} state={state}>"
