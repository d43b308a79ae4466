"""Unit tests for dynamic invocation."""

import pytest

from repro.orb.dii import DynamicInvoker, InvocationError
from repro.orb.object import MethodRequest, MethodSignature, Servant, ServiceInterface


@pytest.fixture
def invoker():
    interface = ServiceInterface("search")
    interface.add_method(MethodSignature("process"))
    servant = Servant(interface)
    servant.process = lambda x: x + 1
    return DynamicInvoker(servant)


def test_invoke_dispatches_to_servant(invoker):
    result = invoker.invoke(MethodRequest("search", "process", (1,)))
    assert result == 2


def test_wrong_service_rejected(invoker):
    with pytest.raises(InvocationError):
        invoker.invoke(MethodRequest("other", "process", (1,)))


def test_unknown_method_becomes_invocation_error(invoker):
    with pytest.raises(InvocationError):
        invoker.invoke(MethodRequest("search", "nope", ()))


def test_servant_application_errors_propagate(invoker):
    # A TypeError from the handler itself is an application bug and must
    # surface unchanged, not be masked as an InvocationError.
    with pytest.raises(TypeError):
        invoker.invoke(MethodRequest("search", "process", ()))
