"""Replica-side components: applications and service-time/host-load models."""

from .load import (
    ConstantLoad,
    CoupledLoad,
    HostActivity,
    LoadModel,
    ServiceProfile,
    StepLoad,
)
from .server import ReplicaApplication

__all__ = [
    "ReplicaApplication",
    "ServiceProfile",
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "HostActivity",
    "CoupledLoad",
]
