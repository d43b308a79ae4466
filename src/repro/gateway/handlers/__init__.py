"""Protocol handlers loaded into AQuA gateways."""

from .retransmit import BestSinglePolicy, RetransmittingClientHandler
from .timing_fault import (
    DEFAULT_CLASS,
    MSG_PERF,
    MSG_PROBE,
    MSG_PROBE_REPLY,
    MSG_REPLY,
    MSG_REQUEST,
    MSG_SUBSCRIBE,
    OutcomeKind,
    PerformanceUpdate,
    ReplyOutcome,
    RequestClassifier,
    TimingFaultClientHandler,
    TimingFaultServerHandler,
    method_classifier,
)

__all__ = [
    "TimingFaultClientHandler",
    "TimingFaultServerHandler",
    "RetransmittingClientHandler",
    "BestSinglePolicy",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
    "RequestClassifier",
    "method_classifier",
    "DEFAULT_CLASS",
    "MSG_REQUEST",
    "MSG_REPLY",
    "MSG_PERF",
    "MSG_SUBSCRIBE",
    "MSG_PROBE",
    "MSG_PROBE_REPLY",
]
