"""AQuA gateway layer: per-host dispatch plus protocol handlers."""

from .gateway import Gateway, GatewayError, ProtocolHandler
from .handlers import (
    OutcomeKind,
    PerformanceUpdate,
    ReplyOutcome,
    TimingFaultClientHandler,
    TimingFaultServerHandler,
)

__all__ = [
    "Gateway",
    "GatewayError",
    "ProtocolHandler",
    "TimingFaultClientHandler",
    "TimingFaultServerHandler",
    "OutcomeKind",
    "PerformanceUpdate",
    "ReplyOutcome",
]
