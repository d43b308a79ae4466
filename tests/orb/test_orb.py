"""Unit tests for the ORB registry and stubs."""

import pytest

from repro.orb.object import MethodRequest, MethodSignature, ServiceInterface
from repro.orb.orb import Orb, OrbError, RequestInterceptor


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


@pytest.fixture
def orb(interface):
    orb = Orb()
    orb.register_interface(interface)
    return orb


def test_duplicate_interface_rejected(orb, interface):
    with pytest.raises(OrbError):
        orb.register_interface(interface)


def test_unknown_service_lookup_raises(orb):
    with pytest.raises(OrbError):
        orb.interface("nope")


def test_stub_invocation_routes_to_interceptor(sim, orb):
    interceptor = EchoInterceptor(sim)
    orb.bind_interceptor("search", interceptor)
    stub = orb.stub("search")
    event = stub.invoke("process", 1, 2)
    sim.run()
    assert event.value == (1, 2)
    assert interceptor.requests[0] == MethodRequest("search", "process", (1, 2))


def test_stub_rejects_unknown_method(sim, orb):
    orb.bind_interceptor("search", EchoInterceptor(sim))
    with pytest.raises(KeyError):
        orb.stub("search").invoke("nope")


def test_invoke_without_interceptor_raises(orb):
    with pytest.raises(OrbError):
        orb.stub("search").invoke("process")


def test_double_bind_rejected(sim, orb):
    orb.bind_interceptor("search", EchoInterceptor(sim))
    with pytest.raises(OrbError):
        orb.bind_interceptor("search", EchoInterceptor(sim))


def test_bind_requires_registered_interface(sim):
    orb = Orb()
    with pytest.raises(OrbError):
        orb.bind_interceptor("ghost", EchoInterceptor(sim))
