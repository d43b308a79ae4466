"""Unit tests for client stubs."""

import pytest

from repro.orb.object import MethodRequest, MethodSignature, ServiceInterface
from repro.orb.orb import RequestInterceptor, Stub


class EchoInterceptor(RequestInterceptor):
    """Test double: completes every request immediately with its args."""

    def __init__(self, sim):
        self.sim = sim
        self.requests = []

    def submit(self, request):
        self.requests.append(request)
        return self.sim.event().succeed(request.args)


@pytest.fixture
def interface():
    iface = ServiceInterface("search")
    iface.add_method(MethodSignature("process"))
    return iface


def test_stub_invocation_routes_to_interceptor(sim, interface):
    interceptor = EchoInterceptor(sim)
    stub = Stub(interface, interceptor)
    event = stub.invoke("process", 1, 2)
    sim.run()
    assert event.value == (1, 2)
    assert interceptor.requests[0] == MethodRequest("search", "process", (1, 2))


def test_stub_rejects_unknown_method(sim, interface):
    interceptor = EchoInterceptor(sim)
    with pytest.raises(KeyError):
        Stub(interface, interceptor).invoke("nope")
    assert interceptor.requests == []
