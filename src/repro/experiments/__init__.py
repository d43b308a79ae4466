"""Experiments regenerating the paper's figures and the ablations.

Every entry is registered under a short key; ``python -m
repro.experiments --list`` prints the table (EXPERIMENTS.md carries the
same one) and ``python -m repro.experiments <KEY>`` runs an entry.  A
module declares its entry as ``EXPERIMENT`` — an
:class:`~repro.experiments.registry.Experiment` (a seeded sweep: grid,
seeds, point function, tables) or a
:class:`~repro.experiments.registry.Command`.

Keys resolve to modules lazily: importing one experiment module (as the
end-to-end benchmark does in every child process) imports none of its
siblings.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, Union

if TYPE_CHECKING:
    from .registry import Command, Experiment

__all__ = ["MODULES", "load"]

#: Registry key → module name within this package, in presentation order.
MODULES: Dict[str, str] = {
    "fig3": "fig3_overhead",
    "fig45": "fig45_selection",
    "min_response": "min_response",
    "factors": "factors",
    "A1": "policy_comparison",
    "A2": "crash_tolerance",
    "A3": "window_sensitivity",
    "A5": "scalability",
    "A6": "probing",
    "A7": "method_classification",
    "A8": "bursty_network",
    "A9": "calibration",
    "A10": "omission_faults",
    "A11": "queue_scaling",
    "A12": "colocation",
    "A13": "retransmission",
    "A14": "adaptation_timeline",
    "A15": "health_degradation",
    "A16": "overload_collapse",
    "A17": "chaos_campaign",
    "A18": "clock_faults",
    "scale": "bench_scale",
    "smoke": "smoke",
}


def load(key: str) -> Union["Experiment", "Command"]:
    """Import the module registered under ``key`` and return its entry."""
    module = importlib.import_module(f"{__name__}.{MODULES[key]}")
    return module.EXPERIMENT
