"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronization point.  Processes wait on
events by yielding them; the kernel resumes every waiter when the event is
triggered.  Events may *succeed* (carrying a value) or *fail* (carrying an
exception), mirroring the familiar future/promise contract.

A triggered event puts its bound ``_run_callbacks`` on the kernel's heap;
a fire-and-forget timer (``Simulator.call_in`` and friends) puts its
callback there directly, with no event around it.  Everything that
"happens" in the simulation reduces to one such call at a simulated
instant.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .kernel import Simulator

__all__ = [
    "Event",
    "Timeout",
    "EventState",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupting party may attach a ``cause`` describing why the
    interruption happened (e.g. a crash notification).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt(cause={self.cause!r})"


class EventState(enum.Enum):
    """Lifecycle of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


class Event:
    """A one-shot occurrence at a simulated instant.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator
        and may not be shared across kernels.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = EventState.PENDING

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled to fire."""
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        """``True`` once all callbacks have run."""
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.  Valid only once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The payload carried by the event (value or exception)."""
        if self._state is EventState.PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        self._arm(ok=True, value=value, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire carrying ``exception``.

        The exception is re-raised inside every waiting process.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._arm(ok=False, value=exception, delay=delay)
        return self

    def _arm(self, ok: bool, value: Any, delay: float) -> None:
        if self._state is not EventState.PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not delay >= 0:  # (NaN included)
            raise ValueError(f"delay must be non-negative, got {delay}")
        self._ok = ok
        self._value = value
        self._state = EventState.TRIGGERED
        self.sim._schedule(self, delay)

    def _run_callbacks(self) -> None:
        """Invoked by the kernel when the event's instant arrives."""
        callbacks, self.callbacks = self.callbacks, []
        self._state = EventState.PROCESSED
        for callback in callbacks:
            callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already fired."""
        if self._state is EventState.PROCESSED:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} state={self._state.value}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # (NaN included)
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = EventState.TRIGGERED
        sim._schedule(self, delay)
