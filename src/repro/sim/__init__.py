"""Discrete-event simulation substrate.

This package provides the simulated "machines and wires" on which the
reproduction runs: an event-driven kernel with a millisecond clock
(:class:`Simulator`), one-shot events a process can wait on
(:class:`Event`), generator-based processes (:class:`Process`), sampling
distributions with a uniform ``sample(rng)`` interface and structured
tracing (:class:`Tracer`).  Simulated code has one failure rule: an
exception a timer callback or a process does not catch stops
:meth:`Simulator.run` and propagates to its caller.
"""

from .events import Event, SimulationError
from .hostclock import ClockRegistry, HostClock
from .kernel import Simulator
from .process import Process
from .random import (
    Constant,
    Distribution,
    Exponential,
    MarkovModulated,
    Normal,
    Pareto,
    Uniform,
)
from .trace import NullTracer, TraceRecord, Tracer

__all__ = [
    "Simulator",
    "HostClock",
    "ClockRegistry",
    "Process",
    "Event",
    "SimulationError",
    "Distribution",
    "Constant",
    "Uniform",
    "Exponential",
    "Normal",
    "Pareto",
    "MarkovModulated",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]
