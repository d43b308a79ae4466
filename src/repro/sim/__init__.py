"""Discrete-event simulation substrate.

This package provides the simulated "machines and wires" on which the
reproduction runs: an event-driven kernel with a millisecond clock
(:class:`Simulator`), generator-based processes (:class:`Process`),
sampling distributions with a uniform ``sample(rng)`` interface and
structured tracing (:class:`Tracer`).
"""

from .events import Event, EventState, Interrupt, SimulationError, Timeout
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
    "EventState",
    "Timeout",
    "Interrupt",
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
