"""The outcome is the request's record: the paper's stamps, end to end.

On a bare stack (zero-jitter 1 ms links, free marshalling, constant
service) every stamp a ``ReplyOutcome`` carries is exact arithmetic on
the configuration, and ``extract_stages`` reads the decomposition off it.
"""

from repro.analysis.stages import extract_stages
from repro.gateway.handlers.retransmit import RetransmittingClientHandler
from repro.sim.random import Constant

CHARGE_MS = 0.25
LINK_MS = 1.0


def test_stamps_are_the_arithmetic_of_a_bare_stack(stack):
    stack.add_server("replica-1", service_time=Constant(20.0))
    stack.add_client("client-1", deadline_ms=200.0, selection_charge_ms=CHARGE_MS)
    stack.sim.run(until=5.0)  # the subscription lands first
    event = stack.invoke("client-1", 7)
    stack.sim.run()
    outcome = event.value
    perf = outcome.perf
    assert outcome.t1_ms - outcome.t0_ms == CHARGE_MS  # charge + marshalling (free)
    assert perf.enqueued_at_ms - outcome.t1_ms == LINK_MS  # t2 - t1
    assert perf.queue_delay_ms == 0.0
    assert perf.service_time_ms == 20.0  # ts
    assert outcome.t4_ms - perf.sent_at_ms == LINK_MS
    assert outcome.t4_ms - outcome.t0_ms == outcome.response_time_ms
    (stages,) = extract_stages([outcome])
    assert (stages.client_ms, stages.request_ms, stages.reply_ms) == (
        CHARGE_MS, LINK_MS, LINK_MS,
    )
    assert stages.total_ms == outcome.response_time_ms


def test_a_reply_to_a_retransmitted_copy_is_decomposed_from_the_copy(stack):
    for host in ("replica-1", "replica-2"):
        stack.add_server(host, service_time=Constant(10.0))
    handler = stack.add_client(
        "client-1", deadline_ms=100.0, handler_cls=RetransmittingClientHandler
    )
    warm_up = stack.invoke("client-1", 0)
    stack.sim.run()
    preferred = warm_up.value.replica
    stack.servers[preferred].crash()  # silent: still in the view
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    outcome = event.value
    assert handler.retransmissions == 1
    assert outcome.replica != preferred
    assert outcome.perf.replica == outcome.replica
    # The copy left one retry wait (half the deadline) after the original.
    retry_wait = handler.engine.retry_wait_ms(1)
    assert outcome.t1_ms - outcome.t0_ms == retry_wait
    (stages,) = extract_stages([outcome])
    assert stages.request_id == outcome.request_id
    assert (stages.client_ms, stages.request_ms, stages.reply_ms) == (
        retry_wait, LINK_MS, LINK_MS,
    )
    assert stages.service_ms == 10.0


def test_a_timeout_carries_its_stamps_and_no_reply(stack):
    stack.add_server("replica-1")
    stack.add_client("client-1", deadline_ms=50.0, response_timeout_factor=2.0)
    stack.invoke("client-1", 0)
    stack.sim.run()
    stack.servers["replica-1"].crash()
    event = stack.invoke("client-1", 1)
    stack.sim.run()
    outcome = event.value
    assert outcome.timed_out
    assert outcome.perf is None
    assert outcome.t1_ms == outcome.t0_ms  # the original send
    assert outcome.t4_ms - outcome.t0_ms == outcome.response_time_ms == 100.0
    assert extract_stages([outcome]) == []
