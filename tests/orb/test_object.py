"""Unit tests for the ORB object model."""

import pytest

from repro.orb.object import MethodSignature, Servant, ServiceInterface


@pytest.fixture
def interface():
    iface = ServiceInterface("search")
    iface.add_method(MethodSignature("process", request_bytes=64, reply_bytes=32))
    iface.add_method(MethodSignature("status"))
    return iface


class TestInterface:
    def test_method_lookup(self, interface):
        assert interface.method("process").request_bytes == 64

    def test_unknown_method_raises(self, interface):
        with pytest.raises(KeyError):
            interface.method("nope")

    def test_contains(self, interface):
        assert "process" in interface
        assert "nope" not in interface

    def test_duplicate_method_rejected(self, interface):
        with pytest.raises(ValueError):
            interface.add_method(MethodSignature("process"))

    def test_methods_in_declaration_order(self, interface):
        assert [m.name for m in interface.methods()] == ["process", "status"]

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            MethodSignature("m", request_bytes=-1)


class TestServant:
    def test_dispatch_to_named_method(self, interface):
        class Search(Servant):
            def process(self, x):
                return x + 1

        servant = Search(interface)
        assert servant.dispatch("process", (41,)) == 42

    def test_dispatch_unknown_method_raises(self, interface):
        servant = Servant(interface)
        with pytest.raises(KeyError):
            servant.dispatch("nope", ())

    def test_dispatch_unimplemented_method_raises(self, interface):
        servant = Servant(interface)
        with pytest.raises(NotImplementedError):
            servant.dispatch("process", ())
