"""The shed path through the client handler and the lifecycle auditor.

A shed is the third completion outcome (reply XOR timeout XOR shed): the
client's event fires immediately, no copy hits the wire, no request-book
record exists, and the response-time statistics stay untouched — load
control is not a timing fault.
"""

from repro.sim.random import Constant

from ..faults.conftest import FaultStack

REPLICAS = ["s-1", "s-2", "s-3"]


def saturate(stack: FaultStack) -> None:
    """Every replica probes at a queue of 9: the load index passes the shed load."""
    for host in REPLICAS:
        stack.clients["c-1"].load_tracker.observe_probe(host, 9)


def make_stack(**client_kwargs) -> FaultStack:
    stack = FaultStack(seed=1)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(8.0))
    stack.add_client(
        "c-1",
        deadline_ms=5.0,  # unattainable: service alone takes 8 ms
        response_timeout_factor=4.0,
        **client_kwargs,
    )
    return stack


def test_shed_outcome_is_failfast_and_audited():
    stack = make_stack(overload_config=True)
    handler = stack.clients["c-1"]

    # Request 1 bootstraps (no model yet -> always admitted) and seeds
    # the windows with evidence that the deadline is hopeless.
    first = stack.invoke("c-1", 1)
    stack.sim.run()
    assert first.value.shed is False
    saturate(stack)

    second = stack.invoke("c-1", 2)
    stack.sim.run()
    outcome = second.value
    assert outcome.shed is True
    assert outcome.timed_out is False
    assert outcome.replica is None
    assert outcome.value is None
    assert outcome.redundancy == 0
    assert outcome.request_id == -1
    assert "shed_load" in outcome.decision_meta

    assert handler.sheds == 1
    assert handler.admission.sheds == 1
    assert handler.pending == {}  # never registered: nothing to leak
    # Sheds stay out of the QoS statistics (only request 1 was served).
    assert handler.stats.responses == 1

    report = stack.auditor.assert_clean()
    assert (report.submitted, report.replies, report.sheds) == (2, 1, 1)
    assert report.timeouts == 0
    assert report.completed == 2
    assert "1 sheds" in str(report)


def test_without_admission_nothing_sheds():
    stack = make_stack(overload_config=False)
    for i in range(3):
        stack.invoke("c-1", i)
        stack.sim.run()
    assert stack.clients["c-1"].sheds == 0
    assert stack.auditor.assert_clean().sheds == 0


def test_auditor_flags_contradictory_shed_outcomes():
    from repro.faultinject.auditor import LifecycleAuditor

    stack = make_stack(overload_config=True)
    stack.invoke("c-1", 1)
    stack.sim.run()  # request 1 seeds the model...
    saturate(stack)
    stack.invoke("c-1", 2)
    stack.sim.run()  # ...so request 2 is shed
    auditor: LifecycleAuditor = stack.auditor
    shed_records = [
        r for r in auditor.records
        if r.outcomes and getattr(r.outcomes[0], "shed", False)
    ]
    assert shed_records  # request 2 shed
    # Corrupt the outcome: a shed that also claims a timeout must be a
    # violation, as must a shed that names a replica.
    from dataclasses import replace

    record = shed_records[0]
    record.outcomes[0] = replace(record.outcomes[0], timed_out=True)
    report = auditor.audit()
    assert any("shed AND timeout" in v for v in report.violations)
    record.outcomes[0] = replace(
        record.outcomes[0], timed_out=False, replica="s-1"
    )
    report = auditor.audit()
    assert any("shed AND reply" in v for v in report.violations)



def test_a_shed_carries_t0_and_t4_and_no_send():
    stack = make_stack(overload_config=True, selection_charge_ms=0.25)
    stack.invoke("c-1", 1)
    stack.sim.run()
    saturate(stack)
    event = stack.invoke("c-1", 2)
    stack.sim.run()
    outcome = event.value
    assert outcome.shed
    assert outcome.t1_ms is None and outcome.perf is None
    # Shed at dispatch, after the selection charge.
    assert outcome.t4_ms - outcome.t0_ms == outcome.response_time_ms == 0.25
