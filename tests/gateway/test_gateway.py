"""Unit tests for gateway message dispatch."""

import pytest

from repro.gateway.gateway import Gateway, GatewayError, ProtocolHandler
from repro.net.message import Message


class RecordingHandler(ProtocolHandler):
    def __init__(self, kinds, service=""):
        self.message_kinds = tuple(kinds)
        self.service = service
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def _send(transport, sim, dest, kind, service=None):
    payload = {"service": service} if service is not None else {}
    transport.send(
        Message(sender="client-1", destination=dest, kind=kind, payload=payload)
    )
    sim.run()


def test_gateway_binds_its_host(sim, transport):
    Gateway("server-1", sim, transport)
    with pytest.raises(ValueError, match="already bound"):
        transport.bind("server-1", lambda m: None)


def test_dispatch_by_kind(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    handler = RecordingHandler(["ping"])
    gateway.load_handler(handler)
    _send(transport, sim, "server-1", "ping")
    assert len(handler.received) == 1


def test_dispatch_by_kind_and_service(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    search = RecordingHandler(["req"], service="search")
    orders = RecordingHandler(["req"], service="orders")
    gateway.load_handler(search)
    gateway.load_handler(orders)
    _send(transport, sim, "server-1", "req", service="orders")
    assert len(orders.received) == 1
    assert len(search.received) == 0


def test_service_agnostic_fallback_route(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    catch_all = RecordingHandler(["req"], service="")
    gateway.load_handler(catch_all)
    _send(transport, sim, "server-1", "req", service="whatever")
    assert len(catch_all.received) == 1


def test_unrouted_message_is_dropped_silently(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    ping = RecordingHandler(["ping"])
    gateway.load_handler(ping)
    _send(transport, sim, "server-1", "mystery")
    assert transport.delivered_count == 1  # it reached the gateway...
    assert ping.received == []  # ...and no handler received it


def test_handler_without_kinds_rejected(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    with pytest.raises(GatewayError):
        gateway.load_handler(RecordingHandler([]))


def test_conflicting_route_rejected(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    gateway.load_handler(RecordingHandler(["req"], service="search"))
    with pytest.raises(GatewayError):
        gateway.load_handler(RecordingHandler(["req"], service="search"))


def test_handlers_lists_distinct_handlers(sim, transport):
    gateway = Gateway("server-1", sim, transport)
    multi = RecordingHandler(["a", "b"])
    gateway.load_handler(multi)
    assert gateway.handlers() == [multi]
