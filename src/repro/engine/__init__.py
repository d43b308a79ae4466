"""The timing-fault client logic, free of simulator, network and ORB.

One owner per job: :class:`EngineConfig` (every behaviour option, its
default and its validity), :class:`RequestBook` (lifecycle records),
:class:`EvidenceAdmission` (which reported timings enter the model),
:class:`ClassModels` (per-class repositories and estimators) and
:class:`TimingFaultEngine` (decide → send → mine → account), which drives
the outside world through one :class:`EnginePort`.  The simulator adapter
is :class:`repro.gateway.handlers.timing_fault.TimingFaultClientHandler`.
"""

from .admission import EvidenceAdmission
from .book import RequestBook, RequestRecord
from .config import EngineConfig
from .engine import TimingFaultEngine
from .models import ClassModels
from .types import (
    DEFAULT_CLASS,
    EnginePort,
    OutcomeKind,
    PerformanceUpdate,
    ReplyOutcome,
    RequestClassifier,
    method_classifier,
)

__all__ = [
    "ClassModels",
    "DEFAULT_CLASS",
    "EngineConfig",
    "EnginePort",
    "EvidenceAdmission",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
    "RequestBook",
    "RequestClassifier",
    "RequestRecord",
    "TimingFaultEngine",
    "method_classifier",
]
