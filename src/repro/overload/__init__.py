"""Overload defense: load tracking, redundancy governing, admission control.

The subsystem closes the redundancy→load feedback loop of Algorithm 1
(docs/ARCHITECTURE.md §6):

* :class:`LoadTracker` folds the queue-length and ``tq`` fields already
  carried on every reply, plus the gateway's in-flight copy count, into
  a dimensionless load index;
* :class:`GovernedSelectionPolicy` caps the selected set's size as the
  index rises — full hedging when idle, shrinking toward ``{m0}`` plus
  the minimum crash-guarantee set under saturation;
* :class:`AdmissionController` fail-fast sheds requests whose best
  achievable ``F_{R_m0}(t - δ)`` is below a floor.

The subsystem is on or off as a whole: ``EngineConfig(overload_config=
True)`` (or ``ScenarioConfig(overload_config=True)`` for every client of
a scenario) makes the :class:`~repro.engine.TimingFaultEngine` run all
three.  Their thresholds are module constants, A16's one tuning of its
measured knee.
"""

from .admission import AdmissionController
from .governor import GovernedSelectionPolicy
from .load import LoadTracker

__all__ = [
    "LoadTracker",
    "GovernedSelectionPolicy",
    "AdmissionController",
]
