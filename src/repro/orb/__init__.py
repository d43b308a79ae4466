"""Simulated ORB: service interfaces, servants, marshalling and stubs."""

from .iiop import MarshalledCall, MarshalledReply, MarshallingModel
from .object import (
    MethodRequest,
    MethodSignature,
    Servant,
    ServiceInterface,
)
from .orb import RequestInterceptor, Stub

__all__ = [
    "Stub",
    "RequestInterceptor",
    "ServiceInterface",
    "MethodSignature",
    "MethodRequest",
    "Servant",
    "MarshallingModel",
    "MarshalledCall",
    "MarshalledReply",
]
