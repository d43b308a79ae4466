"""The discrete-event simulation kernel.

:class:`Simulator` owns the simulated clock and the pending-event queue.
Time is a ``float`` in **milliseconds** throughout the repository, matching
the units the paper reports.

The pending set is a binary heap of ``(when, seq, daemon, fn)`` entries,
popped in ascending ``(when, seq)`` with ``seq`` assigned in push order,
so same-instant entries dispatch strictly FIFO.  ``seq`` is unique, so
comparing two entries never reaches the daemon flag or the payload.  An
entry's payload is the one callable the run loop calls when the entry's
instant arrives: the callback itself for a timer
(:meth:`Simulator.call_in`, :meth:`~Simulator.call_at`,
:meth:`~Simulator.call_at_exact`), and the bound ``_run_callbacks`` of an
:class:`~repro.sim.events.Event` for anything a process can wait on
(timeouts, triggered events, a process's bootstrap and completion).

The kernel is deliberately small: events (:mod:`repro.sim.events`),
processes (:mod:`repro.sim.process`) and everything above them are built
from ``_push`` and the run loop below.  An exception raised by a timer
callback or by a process propagates out of :meth:`Simulator.run`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import Event, SimulationError
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event-driven simulator with a monotonically advancing clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock, in milliseconds.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, bool, Callable[[], None]]] = []
        self._seq = 0
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

    def timeout(self, delay: float) -> Event:
        """Create an event that fires ``delay`` ms from now."""
        return Event(self).succeed(None, delay)

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
        self._push(self._now + (when - self._now), callback)

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
        self._push(when, callback, daemon)

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
        self._push(self._now + delay, callback, daemon)

    def _push(self, when: float, fn: Callable[[], None], daemon: bool = False) -> None:
        """Enqueue ``fn`` at instant ``when`` (FIFO-stable on ties)."""
        if not daemon:
            self._pending_live += 1
        self._seq += 1
        # ``+ 0.0``: the clock reads back a float whatever number was
        # scheduled, and never a negative zero.
        heappush(self._heap, (when + 0.0, self._seq, daemon, fn))

    # -- run loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until work drains or the clock would pass ``until``.

        Without ``until``, the run stops once no *non-daemon* entries
        remain (daemon background activity alone does not keep a
        simulation alive).  With ``until`` set, all entries — daemon
        included — fire up to the horizon and the clock is left exactly
        at ``until``, so repeated ``run(until=...)`` calls compose
        predictably.  An exception raised by a timer callback or a process
        leaves the run at that entry's instant and propagates.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"run until {until} ms is in the past (now {self._now} ms)"
            )
        heap, pop = self._heap, heappop
        while heap:
            if until is None:
                if self._pending_live == 0:
                    return
            elif heap[0][0] > until:
                self._now = until
                return
            when, _seq, daemon, fn = pop(heap)
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
            f"pending={len(self._heap)} processed={self._processed_events}>"
        )
