"""The paper's contribution: online model + dynamic replica selection.

Layers (bottom up): :class:`DiscretePMF` (empirical distributions and
their convolution), :class:`InformationRepository` (per-handler sliding
windows of performance measurements), :class:`ResponseTimeEstimator`
(Equation 2: ``R = S + W + T``), Equation 1 helpers in
:mod:`repro.core.model`, and :func:`select_replicas` /
:class:`DynamicSelectionPolicy` (Algorithm 1 with the bootstrap and
overhead-compensation rules).  Baseline policies from related work live in
:mod:`repro.core.baselines`.
"""

from .baselines import (
    AllReplicasPolicy,
    FixedRedundancyPolicy,
    LowestMeanPolicy,
    NearestPolicy,
    ProbeEstimatePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SingleFastestPolicy,
)
from .distribution import DiscretePMF
from .estimator import QueueScaledEstimator, ResponseTimeEstimator
from .model import (
    min_replicas_needed,
    subset_timeliness_from_map,
    subset_timeliness_probability,
)
from .qos import QoSSpec, QoSViolationCallback, TimingFailureStats
from .repository import InformationRepository, ReplicaRecord, SlidingWindow
from .selection import (
    DynamicSelectionPolicy,
    GovernorMeta,
    HealthView,
    ReplicaProbability,
    SelectionContext,
    SelectionDecision,
    SelectionMeta,
    SelectionPolicy,
    SelectionResult,
    select_replicas,
)

__all__ = [
    "DiscretePMF",
    "InformationRepository",
    "ReplicaRecord",
    "SlidingWindow",
    "ResponseTimeEstimator",
    "QueueScaledEstimator",
    "subset_timeliness_probability",
    "subset_timeliness_from_map",
    "min_replicas_needed",
    "QoSSpec",
    "QoSViolationCallback",
    "TimingFailureStats",
    "select_replicas",
    "SelectionResult",
    "ReplicaProbability",
    "GovernorMeta",
    "SelectionMeta",
    "HealthView",
    "SelectionContext",
    "SelectionDecision",
    "SelectionPolicy",
    "DynamicSelectionPolicy",
    "AllReplicasPolicy",
    "SingleFastestPolicy",
    "FixedRedundancyPolicy",
    "RandomPolicy",
    "RoundRobinPolicy",
    "LowestMeanPolicy",
    "NearestPolicy",
    "ProbeEstimatePolicy",
]
