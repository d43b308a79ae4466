"""Unit tests for the drain-time LifecycleAuditor."""

import pytest

from repro.faultinject import (
    LifecycleViolation,
    SubmissionRecord,
)
from repro.gateway.handlers.timing_fault import ReplyOutcome

from .conftest import FaultStack, stray_record


def _outcome(timed_out, replica):
    return ReplyOutcome(
        value=None,
        response_time_ms=5.0,
        timely=not timed_out,
        timed_out=timed_out,
        replica=replica,
        redundancy=1,
        request_id=1,
        t0_ms=0.0,
        t1_ms=0.0,
        t4_ms=5.0,
        perf=None,
    )


def test_clean_run_audits_clean():
    stack = FaultStack()
    stack.add_server("s-1")
    stack.add_server("s-2")
    stack.add_client("c-1")
    for i in range(3):
        stack.invoke("c-1", i)
    stack.sim.run()
    report = stack.auditor.assert_clean()
    assert report.submitted == 3
    assert report.replies == 3
    assert report.timeouts == 0
    assert report.completed == 3
    assert "clean" in str(report)


def test_timeout_counts_as_completion():
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client("c-1", response_timeout_factor=2.0)
    driver = stack.faults
    driver.crash_now("s-1")  # down before the request hits the wire
    event = stack.invoke("c-1")
    stack.sim.run()
    assert event.value.timed_out
    report = stack.auditor.assert_clean()
    assert report.replies == 0
    assert report.timeouts == 1
    assert client.pending == {}


def test_leaked_pending_entry_is_reported():
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client("c-1")
    stack.invoke("c-1")
    stack.sim.run()
    client.engine.book.open(999, stray_record())  # seed a leak
    report = stack.auditor.audit()
    assert not report.clean
    assert any("pending" in v and "999" in v for v in report.violations)
    with pytest.raises(LifecycleViolation):
        stack.auditor.assert_clean()


def test_leaked_probe_entry_is_reported():
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client("c-1")
    stack.invoke("c-1")
    stack.sim.run()
    client.engine.book.open_probe(123, "s-1", 0.0)
    report = stack.auditor.audit()
    assert any("probes_in_flight" in v for v in report.violations)


def test_resurrected_replica_is_reported():
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client("c-1")
    stack.invoke("c-1")
    stack.sim.run()
    # The repository still models s-1 but the view no longer has it.
    client.engine.models.members = []
    report = stack.auditor.audit()
    assert any("resurrected_replicas" in v for v in report.violations)


def test_unfinished_request_is_a_leak():
    stack = FaultStack()
    stack.add_server("s-1")
    stack.add_client("c-1")
    stack.invoke("c-1")  # never run the simulation: the event cannot fire
    report = stack.auditor.audit()
    assert any("never completed" in v for v in report.violations)


def test_double_completion_is_a_violation():
    stack = FaultStack()
    stack.add_server("s-1")
    stack.add_client("c-1")
    stack.invoke("c-1")
    stack.sim.run()
    record = stack.auditor.records[0]
    record.outcomes.append(record.outcomes[0])
    report = stack.auditor.audit()
    assert any("completed 2 times" in v for v in report.violations)


def test_reply_xor_timeout_violations():
    stack = FaultStack()
    for timed_out, replica in ((True, "r1"), (False, None)):
        event = stack.sim.event()
        outcome = _outcome(timed_out, replica)
        stack.auditor.records.append(
            SubmissionRecord(
                client="c",
                method="process",
                submitted_at_ms=0.0,
                event=event,
                outcomes=[outcome],
            )
        )
        event.succeed(outcome)
    stack.sim.run()
    report = stack.auditor.audit()
    assert any("reply AND timeout" in v for v in report.violations)
    assert any("neither reply nor timeout" in v for v in report.violations)


def test_watch_client_is_idempotent():
    stack = FaultStack()
    stack.add_server("s-1")
    client = stack.add_client("c-1")
    stack.auditor.watch_client(client)  # second watch must not double-wrap
    stack.invoke("c-1")
    stack.sim.run()
    assert len(stack.auditor.records) == 1
    stack.auditor.watch_server(stack.servers["s-1"])  # also idempotent
    stack.auditor.assert_clean()


def test_experiment_harness_runs_the_audit():
    # The §6 harness audits by default: a short two-client run must pass.
    from repro.experiments.harness import run_two_client_experiment

    result = run_two_client_experiment(
        deadline_ms=200.0,
        min_probability=0.0,
        num_requests=3,
        num_replicas=3,
    )
    assert result.client1.requests == 3
    assert result.client2.requests == 3
