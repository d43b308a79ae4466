"""Scale benchmark — selection and kernel throughput at fleet size.

ROADMAP item 2 ("vectorized event kernel + FFT convolution for 100–1000
replica fleets"): the Fig. 3 curves stop at the paper's n = 8, which
says nothing about whether the gateway can pick replicas out of a fleet.
This benchmark runs Fig. 3's selection loop
(:func:`~repro.experiments.fig3_overhead.measure_selection`) over
n ∈ {64, 256, 1024} replicas and windows up to l = 240, and adds an event-kernel
throughput figure (events/sec through :class:`repro.sim.Simulator`'s
event queue), the cost of one message through the message plane
(``net`` + one kernel event + the gateway's routing) and of one evidence
push (the same, plus a client handler filing it in its repository),
exported together as ``BENCH_scale.json`` so CI tracks them PR over PR.

Acceptance target (ISSUE 7): one cached selection over 1024 replicas in
under 1 ms.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from ..engine import PerformanceUpdate
from ..gateway.gateway import ProtocolHandler
from ..gateway.handlers.timing_fault import MSG_PERF
from ..net.lan import LinkProfile
from ..net.message import Message
from ..sim.kernel import Simulator
from ..workload.ministack import SERVICE, Deployment, MiniStack, Wiring, make_interface
from .fig3_overhead import SelectionPoint, measure_selection
from .harness import print_table
from .registry import Command, flag_value

__all__ = [
    "KernelPoint",
    "MessagePoint",
    "measure_kernel_throughput",
    "measure_message_throughput",
    "measure_evidence_push",
    "export_scale_bench",
    "main",
    "EXPERIMENT",
]

#: Fleet sizes the scale benchmark sweeps (Fig. 3 stops at 8).
REPLICA_COUNTS = (64, 256, 1024)
#: Window sizes, up to the 240-entry ceiling of ISSUE 7.
WINDOW_SIZES = (60, 240)
#: Messages sent in one instant per round of the message probe: a
#: replica's push fan-out at the A16 knee is about that wide.
SENDS_PER_DRAIN = 16


@dataclass(frozen=True)
class KernelPoint:
    """Raw event-dispatch throughput at one pending-set size."""

    pending_timers: int
    events: int
    elapsed_s: float

    @property
    def events_per_sec(self) -> float:
        """Dispatched events per wall-clock second."""
        if self.elapsed_s == 0:
            return float("inf")
        return self.events / self.elapsed_s


@dataclass(frozen=True)
class MessagePoint:
    """Host cost of one message through the untraced message plane."""

    #: Messages in one timed slice, and the fastest slice's wall time.
    messages: int
    elapsed_s: float

    @property
    def us_per_message(self) -> float:
        """Wall-clock microseconds per message, send to handler."""
        return self.elapsed_s * 1e6 / self.messages


def measure_kernel_throughput(
    pending_timers: int = 512, target_events: int = 200_000
) -> KernelPoint:
    """Events/sec through the kernel with ``pending_timers`` live timers.

    Each timer perpetually reschedules itself with a 1 ms period from a
    staggered phase, so the pending set stays at ``pending_timers``
    entries while ``target_events`` dispatches stream through — the
    same push/pop pattern a running scenario produces, minus the model
    work, isolating the queue itself.
    """
    sim = Simulator()

    def make_timer() -> object:
        def tick() -> None:
            sim.call_in(1.0, tick)

        return tick

    for index in range(pending_timers):
        sim.call_in(index / pending_timers, make_timer())
    horizon = float(target_events) / pending_timers
    started = time.perf_counter()
    sim.run(until=horizon)
    elapsed = time.perf_counter() - started
    return KernelPoint(
        pending_timers=pending_timers,
        events=sim.processed_events,
        elapsed_s=elapsed,
    )


class _Sink(ProtocolHandler):
    """A handler that does nothing: the probe stops where handlers start."""

    message_kinds = ("probe",)

    def handle_message(self, message: Message) -> None:
        return


def _fastest_slice(
    sim: Simulator, send_round: Callable[[], None], target_messages: int
) -> MessagePoint:
    """Five equal timed slices of ``send_round`` + kernel drain; the fastest
    counts (a slice shared with a busy neighbour says nothing of the plane)."""
    rounds = max(1, target_messages // (5 * SENDS_PER_DRAIN))
    fastest = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(rounds):
            send_round()
            sim.run()
        fastest = min(fastest, time.perf_counter() - started)
    return MessagePoint(messages=rounds * SENDS_PER_DRAIN, elapsed_s=fastest)


def measure_message_throughput(target_messages: int = 100_000) -> MessagePoint:
    """Microseconds per message through ``net`` + kernel + gateway routing.

    Two hosts of an otherwise empty deployment on the default
    :class:`~repro.net.lan.LinkProfile`, one
    :class:`~repro.gateway.gateway.Gateway` routing to a no-op handler.
    Each round constructs and sends :data:`SENDS_PER_DRAIN` messages in one
    instant and runs the kernel until they have all been delivered, so a
    message pays exactly what it pays in a scenario — construction,
    delay draw, one event, delivery, routing — and nothing of the
    handlers above.
    """
    stack = Deployment(0, Wiring(link=LinkProfile()), make_interface())
    transport = stack.transport
    stack.lan.add_host("a")
    stack.lan.add_host("b")
    stack.gateway_for("b").load_handler(_Sink())
    payload = {"service": ""}

    def send_round() -> None:
        for _ in range(SENDS_PER_DRAIN):
            transport.send(Message("a", "b", "probe", payload, 96))

    point = _fastest_slice(stack.sim, send_round, target_messages)
    if transport.delivered_count != 5 * point.messages:
        raise RuntimeError("message probe lost messages on a reliable link")
    return point


def measure_evidence_push(target_messages: int = 100_000) -> MessagePoint:
    """Microseconds per perf push, construction to the repository window.

    :func:`measure_message_throughput` on the same link, but replica ``s``
    pushes ``(ts, tq, queue length)`` to client ``c``'s timing-fault
    handler, whose engine admits it and writes both windows of ``s``.
    """
    stack = MiniStack()
    stack.add_server("s")
    client = stack.add_client("c")
    stack.lan.set_link_profile("s", "c", LinkProfile())
    transport = stack.transport
    stack.sim.run()  # deliver the subscription

    def send_round() -> None:
        for step in range(SENDS_PER_DRAIN):
            perf = PerformanceUpdate("s", SERVICE, 10.0 + step, 0.5 * step, 1)
            payload = {"service": SERVICE, "replica": "s", "perf": perf}
            transport.send(Message("s", "c", MSG_PERF, payload, 96))

    point = _fastest_slice(stack.sim, send_round, target_messages)
    if client.repository.record("s").service_times.version != 5 * point.messages:
        raise RuntimeError("evidence probe lost pushes on a reliable link")
    return point


def export_scale_bench(
    selection: Sequence[SelectionPoint],
    kernel: Sequence[KernelPoint],
    message: MessagePoint,
    push: MessagePoint,
    path: str,
) -> None:
    """Write ``BENCH_scale.json`` (format: docs/PERFORMANCE.md §7)."""
    payload: Dict[str, object] = {
        "benchmark": "scale-kernel",
        "description": (
            "Fleet-scale selection overhead (lattice/FFT convolution + "
            "batched refresh + kept F vector re-read per changed row), "
            "raw event-kernel dispatch throughput "
            "(the Simulator's heapq) and the untraced message plane's cost "
            "per message (Message -> Transport.send -> kernel -> "
            "Gateway -> no-op handler) and per evidence push (the same "
            "to a client handler's repository window).  Written only by `python -m "
            "repro.experiments scale --json FILE`: 50 iterations per "
            "cached/dirty arm, 3 per uncached, 200,000 kernel events "
            "(--quick: n = 64 only, 5 / 1 / 20,000)."
        ),
        "selection": {
            "unit": "microseconds per selection (mean over iterations)",
            "points": [
                {
                    "num_replicas": p.num_replicas,
                    "window_size": p.window_size,
                    "cached_us": round(p.cached_us, 3),
                    "dirty1_us": round(p.dirty1_us, 3),
                    "dirty8_us": round(p.dirty8_us, 3),
                    "uncached_us": round(p.uncached_us, 3),
                    "speedup": round(p.speedup, 2),
                }
                for p in selection
            ],
        },
        "kernel": {
            "unit": "events per wall-clock second",
            "points": [
                {
                    "pending_timers": p.pending_timers,
                    "events": p.events,
                    "events_per_sec": round(p.events_per_sec, 1),
                }
                for p in kernel
            ],
        },
        "message": {
            "unit": "microseconds per message, construction to handler",
            "messages": message.messages,
            "us_per_message": round(message.us_per_message, 3),
        },
        "evidence_push": {
            "unit": "microseconds per push, construction to repository window",
            "messages": push.messages,
            "us_per_message": round(push.us_per_message, 3),
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def main(argv: Sequence[str] = ()) -> int:
    """Print the fleet-scale tables; ``--json FILE`` exports them (BENCH_scale.json)."""
    quick = "--quick" in argv
    if quick:
        selection = measure_selection((64,), (60,), 5, 1)
    else:
        selection = measure_selection(REPLICA_COUNTS, WINDOW_SIZES, 50, 3)
    print_table(
        "Fleet-scale selection overhead (microseconds per selection)",
        ["window l", "replicas n", "cached us", "1-dirty us", "8-dirty us",
         "uncached us", "speedup"],
        [
            (p.window_size, p.num_replicas, p.cached_us, p.dirty1_us,
             p.dirty8_us, p.uncached_us, p.speedup)
            for p in selection
        ],
    )
    kernel = [
        measure_kernel_throughput(
            pending_timers=n, target_events=20_000 if quick else 200_000
        )
        for n in (64, 512, 4096)
    ]
    print_table(
        "Event-kernel dispatch throughput",
        ["pending timers", "events", "events/sec"],
        [(p.pending_timers, p.events, p.events_per_sec) for p in kernel],
    )
    message = measure_message_throughput(10_000 if quick else 100_000)
    push = measure_evidence_push(10_000 if quick else 100_000)
    print_table(
        "Message plane (untraced, two hosts)",
        ["probe", "messages", "us/message"],
        [
            ("no-op handler", message.messages, message.us_per_message),
            ("evidence push", push.messages, push.us_per_message),
        ],
    )
    path = flag_value(argv, "--json")
    if path:
        export_scale_bench(selection, kernel, message, push, path)
        print(f"wrote {path}")
    return 0


EXPERIMENT = Command(key="scale", title="Fleet-scale benchmark", main=main)
