"""Workloads: client behaviours and full-system scenario assembly."""

from .client import ClientSummary, ClosedLoopClient, OpenLoopClient
from .ministack import IntegerServant, MiniStack, make_interface
from .scenarios import Scenario, ScenarioConfig

__all__ = [
    "ClientSummary",
    "ClosedLoopClient",
    "OpenLoopClient",
    "MiniStack",
    "Scenario",
    "ScenarioConfig",
    "IntegerServant",
    "make_interface",
]
