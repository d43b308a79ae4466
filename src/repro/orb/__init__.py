"""Simulated ORB: service interfaces, servants, marshalling and stubs."""

from .dii import DynamicInvoker, InvocationError
from .iiop import MarshalledCall, MarshalledReply, MarshallingModel
from .object import (
    MethodRequest,
    MethodSignature,
    Servant,
    ServiceInterface,
)
from .orb import Orb, OrbError, RequestInterceptor, Stub

__all__ = [
    "Orb",
    "OrbError",
    "Stub",
    "RequestInterceptor",
    "ServiceInterface",
    "MethodSignature",
    "MethodRequest",
    "Servant",
    "DynamicInvoker",
    "InvocationError",
    "MarshallingModel",
    "MarshalledCall",
    "MarshalledReply",
]
