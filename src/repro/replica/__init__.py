"""Replica-side components: applications and service-time/host-load models."""

from .load import (
    ConstantLoad,
    CoupledLoad,
    HostActivity,
    LoadModel,
    PeriodicLoad,
    ServiceProfile,
    StepLoad,
    paper_service_model,
)
from .server import ReplicaApplication

__all__ = [
    "ReplicaApplication",
    "ServiceProfile",
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "PeriodicLoad",
    "HostActivity",
    "CoupledLoad",
    "paper_service_model",
]
