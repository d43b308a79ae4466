"""Unit tests for the server side of the timing fault handler."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.gateway.handlers.timing_fault import MSG_PERF
from repro.sim.random import Constant


def test_request_is_serviced_and_replied(stack):
    stack.add_server("replica-1", service_time=Constant(20.0))
    stack.add_client("client-1", deadline_ms=200.0)
    event = stack.invoke("client-1", 7)
    stack.sim.run()
    outcome = event.value
    assert outcome.value == 7
    assert outcome.replica == "replica-1"
    assert not outcome.timed_out


def test_fifo_ordering_under_backlog(stack):
    server = stack.add_server("replica-1", service_time=Constant(50.0))
    stack.add_client("client-1", deadline_ms=10_000.0)
    first = stack.invoke("client-1", 1)
    second = stack.invoke("client-1", 2)
    stack.sim.run()
    assert first.value.value == 1
    assert second.value.value == 2
    # The second request waited behind the first: its reply carries the
    # queuing delay in its response time.
    assert second.value.response_time_ms > first.value.response_time_ms


def test_queue_delay_reported_in_perf_data(stack):
    stack.add_server("replica-1", service_time=Constant(50.0))
    client = stack.add_client("client-1", deadline_ms=10_000.0)
    stack.invoke("client-1", 1)
    stack.invoke("client-1", 2)
    stack.sim.run()
    delays = client.repository.record("replica-1").queue_delays.values()
    assert delays[0] == pytest.approx(0.0, abs=0.01)
    assert delays[1] >= 49.0  # waited one service time


def test_service_time_reported_in_perf_data(stack):
    stack.add_server("replica-1", service_time=Constant(35.0))
    client = stack.add_client("client-1", deadline_ms=10_000.0)
    stack.invoke("client-1", 1)
    stack.sim.run()
    services = client.repository.record("replica-1").service_times.values()
    assert services == [pytest.approx(35.0)]


def test_busy_time_counts_serving_not_waiting(stack):
    # Two 50 ms services, the second sent long after the first finished:
    # the idle gap between them is not busy time.
    server = stack.add_server("replica-1", service_time=Constant(50.0))
    stack.add_client("client-1", deadline_ms=10_000.0)
    stack.invoke("client-1", 1)
    stack.sim.run()
    once = server.busy_ms
    assert 50.0 <= once < 51.0  # the service plus (de)marshalling
    stack.sim.run(until=stack.sim.now + 1_000.0)
    stack.invoke("client-1", 2)
    stack.sim.run()
    assert server.busy_ms == pytest.approx(2 * once)


def test_queue_length_counts_waiting_and_in_service(stack):
    server = stack.add_server("replica-1", service_time=Constant(100.0))
    stack.add_client("client-1", deadline_ms=100_000.0)
    assert server.queue_length == 0
    for i in range(3):
        stack.invoke("client-1", i)
    stack.sim.run(until=30.0)  # all three arrived; one in service
    assert server.queue_length == 3
    stack.sim.run(until=150.0)  # first finished
    assert server.queue_length == 2


def test_subscription_registers_client(stack):
    server = stack.add_server("replica-1")
    stack.add_client("client-1")
    stack.sim.run()
    assert list(server._subscribers) == ["client-1"]


def test_perf_updates_pushed_to_other_subscribers(stack):
    stack.add_server("replica-1", service_time=Constant(10.0))
    active = stack.add_client("client-1", deadline_ms=1000.0)
    passive = stack.add_client("client-2", deadline_ms=1000.0)
    stack.sim.run()  # let subscriptions land
    stack.invoke("client-1", 1)
    stack.sim.run()
    # The passive client saw a perf push without ever sending a request.
    record = passive.repository.record("replica-1")
    assert len(record.service_times) == 1
    # But it has no gateway-delay measurement of its own yet.
    assert record.gateway_delay_ms is None


def test_crashed_server_ignores_requests(stack):
    server = stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_client("client-1", deadline_ms=50.0)
    server.crash()
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    assert event.value.timed_out


def test_crash_mid_service_loses_reply(stack):
    server = stack.add_server("replica-1", service_time=Constant(100.0))
    stack.add_client("client-1", deadline_ms=50.0)
    event = stack.invoke("client-1", 1)
    stack.sim.call_in(30.0, server.crash)  # while request is in service
    stack.sim.run()
    assert event.value.timed_out


def test_restart_after_crash_processes_again(stack):
    server = stack.add_server("replica-1", service_time=Constant(10.0))
    stack.add_client("client-1", deadline_ms=1000.0)
    server.crash()
    server.restart()
    event = stack.invoke("client-1", 5)
    stack.sim.run()
    assert event.value.value == 5


def test_lifecycle_leaks_name_queued_and_in_service_work(stack):
    server = stack.add_server("replica-1", service_time=Constant(100.0))
    stack.add_client("client-1", deadline_ms=100_000.0)
    stack.invoke("client-1", 1)
    second = stack.invoke("client-1", 2)
    stack.sim.run(until=30.0)  # one in service, one waiting
    leaks = server.lifecycle_leaks()
    assert leaks["busy"] == ["replica-1"]
    assert len(leaks["queued_requests"]) == 1
    stack.sim.run()
    assert second.value.value == 2 and server.lifecycle_leaks() == {}
    stack.invoke("client-1", 3)
    stack.sim.run(until=stack.sim.now + 30.0)
    server.crash()  # a crashed incarnation holds no live obligations
    assert server.lifecycle_leaks() == {}


def test_restarting_a_live_server_keeps_its_work(stack):
    server = stack.add_server("replica-1", service_time=Constant(50.0))
    stack.add_client("client-1", deadline_ms=100_000.0)
    first, second = stack.invoke("client-1", 1), stack.invoke("client-1", 2)
    stack.sim.run(until=30.0)
    server.restart()  # not crashed: nothing to do
    assert server.queue_length == 2
    stack.sim.run()
    assert (first.value.value, second.value.value) == (1, 2)
    assert server.replies == 2


def test_crash_and_restart_are_idempotent(stack):
    server = stack.add_server("replica-1")
    server.crash()
    server.crash()
    server.restart()
    server.restart()
    assert not server.crashed


# -- performance pushes (ISSUE 21) ----------------------------------------------

_PUSH_RUN = """
import json
from repro.workload.ministack import MiniStack

stack = MiniStack(seed=3)
sent = []
send = stack.transport.send

def recording_send(message, group_size=1):
    sent.append([stack.sim.now, message.msg_id, message.sender, message.destination])
    return send(message, group_size)

stack.transport.send = recording_send
for index in (1, 2):
    stack.add_server(f"replica-{index}")
clients = [f"client-{index}" for index in range(1, 9)]
for client in clients:
    stack.add_client(client, deadline_ms=500.0)
stack.sim.run(until=5.0)  # subscriptions land
for round_ in range(2):
    for client in clients:
        stack.invoke(client, round_)
stack.sim.run()
print(json.dumps(sent))
"""


def test_push_order_is_independent_of_the_hash_seed():
    """One seed, two str-hash orders, one sequence of sends.

    Zero-jitter links put every push of one reply on the same instant,
    so which subscriber holds which ``msg_id`` (and kernel ``seq``) is
    exactly the order the server iterates its subscribers in.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _PUSH_RUN],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        runs.append(json.loads(done.stdout))
    pushes = [row for row in runs[0] if row[2].startswith("replica-")]
    assert len(pushes) > 100  # 32 replies, each fanned out to 7 subscribers
    assert runs[0] == runs[1]


def test_subscribers_keep_arrival_order(stack):
    server = stack.add_server("replica-1")
    for name in ("client-b", "client-c", "client-a"):
        stack.add_client(name)
    stack.add_client("client-b2")
    stack.sim.run(until=5.0)
    assert list(server._subscribers) == ["client-b", "client-c", "client-a", "client-b2"]


def test_one_reply_shares_one_push_payload_that_nobody_mutates(stack):
    stack.add_server("replica-1")
    for index in (1, 2, 3, 4):
        stack.add_client(f"client-{index}", deadline_ms=500.0)
    stack.sim.run(until=5.0)
    sent = []
    send = stack.transport.send

    def recording_send(message, group_size=1):
        if message.kind == MSG_PERF:
            sent.append((message, dict(message.payload)))
        return send(message, group_size)

    stack.transport.send = recording_send
    stack.invoke("client-1", 1)
    stack.sim.run()
    assert sorted(message.destination for message, _ in sent) == [
        "client-2", "client-3", "client-4",
    ]
    shared = sent[0][0].payload
    for message, as_sent in sent:
        assert message.payload is shared
        # Every receiver has handled its copy by now: still as sent.
        assert message.payload == as_sent
        assert message.payload["perf"] is as_sent["perf"]
    for index in (2, 3, 4):
        services = stack.clients[f"client-{index}"].repository.record("replica-1")
        assert len(services.service_times.values()) == 1
