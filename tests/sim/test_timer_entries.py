"""A timer is one bare heap entry: its callback, with no Event around it.

On the bare stack a request passes through ~14 kernel entries: message
deliveries, the dispatch timer, the response-timeout expiry, and the
server's wake, demarshal, service and marshal steps.  Only two of them
are something a process can wait on — the request's outcome token,
fired after the upcall's cost, and the closed-loop client's think
timeout — so only those two may reach the heap as an :class:`Event`
(its bound ``_run_callbacks``).  Every other entry's payload is the
callback the kernel calls.
"""

from __future__ import annotations

import pytest

from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.random import Constant
from repro.workload.client import ClosedLoopClient
from repro.workload.ministack import METHOD, MiniStack

REQUESTS = 50


@pytest.fixture
def pushed(monkeypatch):
    """Every payload pushed onto any kernel heap, in push order."""
    payloads = []
    push = Simulator._push

    def recording_push(self, when, fn, daemon=False):
        payloads.append(fn)
        push(self, when, fn, daemon)

    monkeypatch.setattr(Simulator, "_push", recording_push)
    return payloads


def _is_event(payload) -> bool:
    return isinstance(getattr(payload, "__self__", payload), Event)


def _origin(payload) -> str:
    """The function a payload was defined in (a bound method's own name)."""
    return getattr(payload, "__func__", payload).__qualname__


#: Where every bare timer of a request on the bare stack comes from.
BARE_TIMERS = {
    "Transport.send.<locals>.<lambda>",  # a message's delivery
    "TimingFaultClientHandler.submit.<locals>.<lambda>",  # dispatch after δ
    "TimingFaultClientHandler.arm.<locals>.<lambda>",  # the response timeout
    "TimingFaultServerHandler.handle_message.<locals>.wake",
    "TimingFaultServerHandler._serve_head.<locals>.demarshalled",
    "TimingFaultServerHandler._serve_head.<locals>.serviced",
    "TimingFaultServerHandler._serve_head.<locals>.marshalled",
}


def test_a_request_puts_at_most_two_events_on_the_heap(pushed):
    stack = MiniStack(seed=1)
    for host in ("s-1", "s-2", "s-3"):
        stack.add_server(host)
    stack.add_client("c-1", deadline_ms=100.0)
    client = ClosedLoopClient(
        sim=stack.sim,
        stub=stack.stubs["c-1"],
        host="c-1",
        streams=stack.streams,
        method=METHOD,
        num_requests=REQUESTS,
        think_time=Constant(1000.0),
    )
    stack.sim.run()
    assert client.done and len(client.outcomes) == REQUESTS
    assert len(pushed) == stack.sim.processed_events
    events = sum(_is_event(payload) for payload in pushed)
    # Beside the client process's own start and finish: one outcome
    # token per request and one think timeout between two requests.
    assert events == 2 + REQUESTS + (REQUESTS - 1)
    assert len(pushed) / REQUESTS > 10  # the rest are bare timers
    # A completed request is its token's one entry: firing the token
    # from a timer (a lambda in ``complete``) would add a bare origin.
    bare = {_origin(payload) for payload in pushed if not _is_event(payload)}
    assert bare == BARE_TIMERS


def test_call_in_fires_once_at_now_plus_delay(pushed):
    sim = Simulator(start_time=1.25)
    fired = []

    def callback():
        fired.append(sim.now)

    sim.call_in(2.5, callback)
    assert pushed == [callback]
    assert sim.pending_live == 1
    sim.run()
    assert fired == [1.25 + 2.5]
    assert sim.pending_live == 0 and sim.processed_events == 1


def test_daemon_timers_are_not_live_and_fire_only_within_a_horizon(pushed):
    sim = Simulator()
    seen = []
    sim.call_in(1.0, lambda: seen.append("live"))
    sim.call_in(5.0, lambda: seen.append("daemon"), daemon=True)
    sim.call_at_exact(7.0, lambda: seen.append("exact daemon"), daemon=True)
    sim.call_at(3.0, lambda: seen.append("at"))
    assert sim.pending_live == 2 and not any(map(_is_event, pushed))
    sim.run()  # the daemons alone do not keep the run alive
    assert seen == ["live", "at"] and sim.now == 3.0
    assert sim.pending_live == 0
    sim.run(until=10.0)
    assert seen == ["live", "at", "daemon", "exact daemon"]
    assert sim.pending_live == 0 and sim.processed_events == 4


def test_waitable_events_still_push_their_callbacks(pushed):
    sim = Simulator()
    timeout = sim.timeout(2.0)
    event = sim.event().succeed("value")
    assert pushed == [timeout._run_callbacks, event._run_callbacks]
    assert sim.pending_live == 2
    sim.run()
    assert timeout.processed and event.processed and sim.pending_live == 0
