"""Probe replies must never pollute the ``W_i`` performance windows.

A probe is answered by the *gateway* (it bypasses the FIFO queue), so it
measures the network round-trip and samples the queue depth — it carries
no service time and no queuing delay.  Folding it into the service-time /
queuing-delay windows would corrupt the very model the probes exist to
keep fresh.  The regression: run traffic, snapshot every window, let a
burst of staleness probes fire over an idle period, and require the
windows — values, versions, and the pmfs built from them — bit-identical.
"""

from repro.sim.random import Constant

from ..faults.conftest import FaultStack

REPLICAS = ["s-1", "s-2", "s-3"]


def _window_state(handler):
    state = {}
    for name in handler.repository.replicas():
        record = handler.repository.record(name)
        state[name] = (
            tuple(record.service_times.values()),
            tuple(record.queue_delays.values()),
            record.service_times.version,
            record.queue_delays.version,
            record.service_times.pmf().items(),
            record.queue_delays.pmf().items(),
        )
    return state


def test_probe_burst_leaves_window_pmfs_bit_identical():
    stack = FaultStack(seed=3)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client(
        "c-1",
        deadline_ms=100.0,
        response_timeout_factor=3.0,
        probe_staleness_ms=30.0,
        probe_interval_ms=10.0,
    )
    handler = stack.clients["c-1"]

    def load():
        for i in range(5):
            yield stack.invoke("c-1", i)
            yield stack.sim.timeout(3.0)

    stack.sim.spawn(load(), name="load")
    stack.sim.run()
    before = _window_state(handler)
    assert before  # traffic actually filled the windows
    probes_before = handler.probes_sent

    # An idle stretch many staleness thresholds long: every record goes
    # stale and the probe tick fires a burst of probes, whose replies
    # arrive while nothing else is running.
    def hold():
        yield stack.sim.timeout(300.0)

    stack.sim.spawn(hold(), name="hold")
    stack.sim.run()

    assert handler.probes_sent > probes_before  # the burst happened
    assert handler.probes_expired == 0  # every probe was answered
    after = _window_state(handler)
    assert set(after) == set(before)
    for name, (values_s, values_q, ver_s, ver_q, pmf_s, pmf_q) in before.items():
        assert after[name][0] == values_s, name
        assert after[name][1] == values_q, name
        assert after[name][2] == ver_s, name
        assert after[name][3] == ver_q, name
        assert after[name][4] == pmf_s, name  # float ==: bit-identical
        assert after[name][5] == pmf_q, name
    stack.auditor.assert_clean()


def test_probe_replies_do_refresh_queue_length_and_load_index():
    stack = FaultStack(seed=3)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client(
        "c-1",
        deadline_ms=100.0,
        response_timeout_factor=3.0,
        probe_staleness_ms=30.0,
        probe_interval_ms=10.0,
        overload_config=True,
    )
    handler = stack.clients["c-1"]
    stack.invoke("c-1", 1)
    stack.sim.run()

    def hold():
        yield stack.sim.timeout(100.0)

    stack.sim.spawn(hold(), name="hold")
    stack.sim.run()
    assert handler.probes_sent > 0
    # The probe's legitimate outputs: the repository's queue-length field
    # and the load tracker both saw the sampled (idle) depth.
    assert handler.load_tracker.observations > 0
    for name in REPLICAS:
        assert handler.repository.record(name).queue_length == 0
