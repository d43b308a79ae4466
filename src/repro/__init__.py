"""repro — reproduction of Krishnamurthy, Sanders & Cukier (DSN 2001),
"A Dynamic Replica Selection Algorithm for Tolerating Timing Faults".

The package provides, from the bottom up:

* :mod:`repro.sim` — a discrete-event simulation kernel (ms clock,
  generator processes, reproducible random streams, tracing);
* :mod:`repro.net` / :mod:`repro.group` / :mod:`repro.orb` — the LAN,
  Maestro/Ensemble-style group communication, and CORBA-style object
  layers AQuA is built on;
* :mod:`repro.core` — the paper's contribution: empirical response-time
  distributions (Equation 2), the probabilistic timeliness model
  (Equation 1), Algorithm 1, and baseline selection policies;
* :mod:`repro.gateway` / :mod:`repro.replica` / :mod:`repro.proteus` —
  the AQuA gateway with its timing fault handler, replica applications,
  and dependability management;
* :mod:`repro.workload` — clients and the :class:`Scenario` builder;
* :mod:`repro.experiments` — harnesses regenerating every figure of the
  paper's evaluation plus the ablations documented in DESIGN.md.

Quickstart::

    from repro import Scenario, ScenarioConfig, QoSSpec

    scenario = Scenario(ScenarioConfig(seed=1, num_replicas=7))
    client = scenario.add_client(
        "client-1", QoSSpec("search", deadline_ms=160.0, min_probability=0.9)
    )
    scenario.run_to_completion()
    print(client.summary())
"""

from .core import (
    DiscretePMF,
    DynamicSelectionPolicy,
    InformationRepository,
    QoSSpec,
    ReplicaProbability,
    ResponseTimeEstimator,
    SelectionPolicy,
    SelectionResult,
    TimingFailureStats,
    select_replicas,
    subset_timeliness_probability,
)
from .gateway import (
    ReplyOutcome,
    TimingFaultClientHandler,
    TimingFaultServerHandler,
)
from .rng import RNGManager
from .sim import Simulator
from .workload import (
    ClientSummary,
    ClosedLoopClient,
    OpenLoopClient,
    Scenario,
    ScenarioConfig,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation
    "Simulator",
    "RNGManager",
    # core model + algorithm
    "DiscretePMF",
    "InformationRepository",
    "ResponseTimeEstimator",
    "subset_timeliness_probability",
    "select_replicas",
    "SelectionResult",
    "ReplicaProbability",
    "SelectionPolicy",
    "DynamicSelectionPolicy",
    "QoSSpec",
    "TimingFailureStats",
    # middleware
    "TimingFaultClientHandler",
    "TimingFaultServerHandler",
    "ReplyOutcome",
    # workload
    "Scenario",
    "ScenarioConfig",
    "ClientSummary",
    "ClosedLoopClient",
    "OpenLoopClient",
]
