"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and the pending-event queue.
Time is a ``float`` in **milliseconds** throughout the repository, matching
the units the paper reports.

The pending set is an :class:`EventQueue`: a binary heap of
``(when, seq, daemon, fn)`` entries, popped in ascending ``(when, seq)``
so same-instant entries dispatch strictly FIFO.  An entry's payload is
the one callable the run loop calls when the entry's instant arrives:
the callback itself for a timer (:meth:`Simulator.call_in`,
:meth:`~Simulator.call_at`, :meth:`~Simulator.call_at_exact`), and the
bound ``_run_callbacks`` of an :class:`~repro.sim.events.Event` for
anything a process can wait on (timeouts, triggered events, a process's
bootstrap and interrupt).

The kernel is deliberately small: events (:mod:`repro.sim.events`),
processes (:mod:`repro.sim.process`) and everything above them are built
from ``_schedule``, the timer calls and the run loop below.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import Event, SimulationError, Timeout
from .process import Process

__all__ = ["EventQueue", "Simulator"]


class EventQueue:
    """Pending-entry heap.

    Ordering contract: pops come out in ascending ``(when, seq)``, with
    ``seq`` assigned in push order.  ``seq`` is unique, so comparing two
    entries never reaches the daemon flag or the payload, which may be
    any object.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, bool, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, item: Any, daemon: bool = False) -> None:
        """Enqueue ``item`` at instant ``when`` (FIFO-stable on ties)."""
        self._seq += 1
        # ``+ 0.0``: the clock reads back a float whatever number was
        # scheduled, and never a negative zero.
        heapq.heappush(self._heap, (when + 0.0, self._seq, daemon, item))

    def pop(self) -> Tuple[float, Any, bool]:
        """Dequeue and return ``(when, item, daemon)`` for the next entry."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        when, _seq, daemon, item = heapq.heappop(self._heap)
        return when, item, daemon

    def peek_when(self) -> float:
        """Instant of the next entry, or ``inf`` when empty."""
        return self._heap[0][0] if self._heap else float("inf")


class Simulator:
    """Event-driven simulator with a monotonically advancing clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in milliseconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._processed_events = 0
        self._pending_live = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of heap entries the run loop has fired so far."""
        return self._processed_events

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    @property
    def pending_live(self) -> int:
        """Number of non-daemon entries still pending."""
        return self._pending_live

    def spawn(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process from ``generator`` at the current instant."""
        return Process(self, generator, name=name)

    # -- timers --------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` at absolute simulated time ``when``.

        The heap entry is ``callback`` itself, as for :meth:`call_in`, at
        the instant ``now + (when - now)``, as for a delay;
        :meth:`call_at_exact` pushes ``when`` itself.  Returns ``None``.
        """
        if not when >= self._now:  # (NaN included)
            raise SimulationError(
                f"cannot schedule at {when} ms: clock already at {self._now} ms"
            )
        self._pending_live += 1
        self._queue.push(self._now + (when - self._now), callback)

    def call_at_exact(
        self, when: float, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Run ``callback()`` at the float ``when`` itself.

        :meth:`call_at` goes through a delay, so its entry fires at
        ``now + (when - now)``, which can sit one ulp off ``when``.  A
        caller that resumes a float-accumulated chain of instants (the
        failure detector's polls) needs the chain's own value: this
        pushes ``when`` untouched.  The entry is ``callback`` itself and
        ``daemon`` is as for :meth:`call_in`.  Returns ``None``.
        """
        if not when >= self._now:  # (NaN included)
            raise SimulationError(
                f"cannot schedule at {when} ms: clock already at {self._now} ms"
            )
        if not daemon:
            self._pending_live += 1
        self._queue.push(when, callback, daemon)

    def call_in(
        self, delay: float, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Run ``callback()`` after ``delay`` milliseconds.

        The heap entry's payload is ``callback`` itself: no
        :class:`~repro.sim.events.Event` is built, so there is nothing to
        wait on, cancel or read back, and the call returns ``None``.
        ``daemon=True`` marks the firing as background activity: daemon
        entries still fire during bounded runs (``run(until=...)``) but do
        not keep an unbounded ``run()`` alive.  Use it for self-reschedul-
        ing activities such as failure-detector polls.
        """
        if not delay >= 0:  # (NaN included)
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        if not daemon:
            self._pending_live += 1
        self._queue.push(self._now + delay, callback, daemon)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        """Enqueue ``event`` to fire ``delay`` ms from now (FIFO-stable)."""
        self._pending_live += 1
        self._queue.push(self._now + delay, event._run_callbacks)

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next pending entry, or ``float('inf')`` if none."""
        return self._queue.peek_when()

    def step(self) -> None:
        """Fire the single next entry, advancing the clock to it."""
        when, fn, daemon = self._queue.pop()  # raises on an empty queue
        if not daemon:
            self._pending_live -= 1
        self._now = when
        self._processed_events += 1
        fn()

    def run(self, until: Optional[float] = None) -> None:
        """Run until work drains or the clock would pass ``until``.

        Without ``until``, the run stops once no *non-daemon* entries
        remain (daemon background activity alone does not keep a
        simulation alive).  With ``until`` set, all entries — daemon
        included — fire up to the horizon and the clock is left exactly
        at ``until``, so repeated ``run(until=...)`` calls compose
        predictably.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run until {until} ms is in the past (now {self._now} ms)"
            )
        # The queue's own heap, popped here as EventQueue.pop does and
        # fired as step() does: the loop runs once per entry.
        heap, heappop = self._queue._heap, heapq.heappop
        while heap:
            if until is None:
                if self._pending_live == 0:
                    return
            elif heap[0][0] > until:
                self._now = until
                return
            when, _seq, daemon, fn = heappop(heap)
            if not daemon:
                self._pending_live -= 1
            self._now = when
            self._processed_events += 1
            fn()
        if until is not None:
            self._now = until

    def __repr__(self) -> str:
        return (
            f"<Simulator now={self._now:.3f}ms "
            f"pending={len(self._queue)} processed={self._processed_events}>"
        )
