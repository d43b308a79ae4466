"""RequestBook: exactly-once completion and the life of a record.

Each test is one row of the lifecycle table — what arrives, in what
order, and what the book (and the engine above it) must hold afterwards.
The engine runs on a fake port; no simulator is involved.
"""

import math

import pytest

from repro.core.selection import SelectionDecision
from repro.engine import RequestBook, RequestRecord
from repro.health import HealthConfig

from .fakes import REPLICAS, REQUEST, FakePort, RankedPolicy, make_engine, perf


def record(*expected: str) -> RequestRecord:
    return RequestRecord(
        REQUEST, "", 0.0, 1.0, "token",
        SelectionDecision(selected=tuple(expected)), expected=set(expected),
    )


class TestBookAlone:
    def test_claim_is_granted_exactly_once(self):
        book, rec = RequestBook(), record("s-1")
        assert book.claim(rec) is True
        assert book.claim(rec) is False

    def test_settle_keeps_a_completed_record_until_every_reply_arrived(self):
        book, rec = RequestBook(), record("s-1", "s-2")
        book.open(7, rec)
        book.heard(rec, "s-1")
        book.claim(rec)
        book.settle(7)
        assert 7 in book.pending  # s-2's redundant reply may still come
        book.heard(rec, "s-2")
        book.settle(7)
        assert book.pending == {}

    def test_settle_never_drops_an_uncompleted_record(self):
        book, rec = RequestBook(), record()
        book.open(7, rec)  # nothing expected, nothing delivered yet
        book.settle(7)
        assert 7 in book.pending

    def test_copy_reply_resolves_to_the_original_with_the_copys_t1(self):
        book, rec = RequestBook(), record("s-1")
        book.open(7, rec)
        book.add_copy(9, 7, "s-2", sent_at=40.0)
        assert rec.expected == {"s-1", "s-2"}
        assert book.resolve(7) == (7, rec, 1.0)
        assert book.resolve(9) == (7, rec, 40.0)
        # Each copy is answered at most once: a duplicate of its reply
        # no longer names any request.
        assert book.resolve(9) == (9, None, 0.0)

    def test_forgetting_a_request_drops_its_copies(self):
        book = RequestBook()
        book.open(7, record("s-1"))
        book.open(8, record("s-1"))
        book.add_copy(9, 7, "s-2", sent_at=40.0)
        book.add_copy(10, 8, "s-3", sent_at=41.0)
        book.forget(7)
        assert book.leaks() == {"pending": [8], "copies_in_flight": [10]}
        assert book.resolve(9) == (9, None, 0.0)

    def test_bill_silent_charges_each_silence_once(self):
        book, rec = RequestBook(), record("s-1", "s-2", "s-3")
        book.heard(rec, "s-2")
        assert book.bill_silent(rec) == ["s-1", "s-3"]
        assert book.bill_silent(rec) == []
        rec.expected.add("s-4")
        assert book.bill_silent(rec) == ["s-4"]

    def test_awaiting_replies_counts_unanswered_copies(self):
        book, rec = RequestBook(), record("s-1", "s-2")
        book.open(7, rec)
        assert book.awaiting_replies() == 2
        book.heard(rec, "s-1")
        assert book.awaiting_replies() == 1

    def test_probe_book(self):
        book = RequestBook()
        book.open_probe(3, "s-1", sent_at=5.0)
        assert book.probed() == {"s-1"}
        assert book.leaks() == {"probes_in_flight": [3]}
        assert book.close_probe(3) == (5.0, "s-1")
        assert book.close_probe(3) is None
        assert book.leaks() == {}

    def test_views_are_read_only(self):
        book = RequestBook()
        with pytest.raises(TypeError):
            book.pending[1] = record()
        with pytest.raises(TypeError):
            book.probes[1] = (0.0, "s-1")


class TestThroughTheEngine:
    def submit(self, engine, port, token="t-1"):
        return engine.dispatch(REQUEST, "call", port.now, token)

    def test_first_reply_completes_and_redundant_reply_is_only_mined(self):
        port = FakePort()
        engine = make_engine(port)
        msg_id = self.submit(engine, port)
        assert port.sent == [("request", msg_id, ("s-1", "s-2"))]
        port.clock = 10.0
        engine.on_reply(msg_id, "s-1", perf("s-1"), "value-1")
        outcome = port.outcome("t-1")
        assert (outcome.value, outcome.replica, outcome.redundancy) == ("value-1", "s-1", 2)
        assert outcome.response_time_ms == 10.0 and outcome.timely
        assert msg_id in engine.book.pending  # s-2 has not answered yet
        port.clock = 12.0
        engine.on_reply(msg_id, "s-2", perf("s-2", ts=7.0), "value-2")
        assert len(port.completions["t-1"]) == 1  # mined, not delivered
        assert engine.models.repository.record("s-2").has_history
        assert engine.book.pending == {}
        assert engine.stats.responses == 1

    def test_duplicate_and_post_forget_replies_are_evidence_only(self):
        port = FakePort()
        engine = make_engine(port, policy=RankedPolicy(width=1))
        msg_id = self.submit(engine, port)
        port.clock = 10.0
        engine.on_reply(msg_id, "s-1", perf("s-1"), "v")
        assert engine.book.pending == {}
        engine.on_reply(msg_id, "s-1", perf("s-1", ts=9.0), "v")  # duplicate
        assert len(port.completions["t-1"]) == 1
        assert engine.models.repository.record("s-1").service_times.values() == [5.0, 9.0]

    def test_timeout_after_partial_replies_bills_only_silent_replicas_once(self):
        port = FakePort()
        engine = make_engine(
            port, policy=RankedPolicy(width=3), health_config=HealthConfig()
        )
        msg_id = self.submit(engine, port)
        port.clock = 10.0
        engine.on_reply(msg_id, "s-2", perf("s-2"), "v")
        (timeout,) = port.armed(engine.expire)
        port.fire(timeout)
        assert engine.book.pending == {}
        assert len(port.completions["t-1"]) == 1  # the reply, not a timeout
        streaks = {
            r: engine.health.record_for(r).consecutive_faults
            for r in ("s-1", "s-2", "s-3")
        }
        assert streaks == {"s-1": 1, "s-2": 0, "s-3": 1}
        engine.expire(msg_id)  # a late second firing finds nothing to bill
        assert engine.health.record_for("s-1").consecutive_faults == 1

    def test_silent_request_times_out_exactly_once(self):
        port = FakePort()
        engine = make_engine(port)
        self.submit(engine, port)
        (timeout,) = port.armed(engine.expire)
        port.fire(timeout)
        outcome = port.outcome("t-1")
        assert outcome.timed_out and outcome.replica is None
        assert outcome.response_time_ms == 300.0  # factor 3 × 100 ms
        assert engine.leaks() == {}

    def test_request_that_reaches_nobody_fails_fast(self):
        port = FakePort()
        port.unreachable = {"s-1", "s-2"}
        engine = make_engine(port)
        self.submit(engine, port)
        (timeout,) = port.armed(engine.expire)
        assert timeout.due == 0.0
        port.fire(timeout)
        assert port.outcome("t-1").timed_out

    def test_shed_opens_no_record(self):
        port = FakePort()
        engine = make_engine(
            port, policy=RankedPolicy(probability=0.05), overload_config=True
        )
        for replica in REPLICAS:  # queues of 9: load index 3, past the shed load
            engine.on_perf(perf(replica, queue=9))
        assert self.submit(engine, port) == -1
        outcome = port.outcome("t-1")
        assert outcome.shed and not outcome.timed_out and outcome.request_id == -1
        assert port.sent == [] and port.timers == []
        assert engine.book.pending == {} and engine.sheds == 1
        assert engine.stats.responses == 0  # a shed is not a timing failure

    def test_copy_reply_completes_the_request_and_is_timed_from_the_copy(self):
        port = FakePort()
        engine = make_engine(
            port, policy=RankedPolicy(width=1), deadline_ms=40.0, retry=True
        )
        msg_id = self.submit(engine, port)
        (retry,) = port.armed(engine.retransmit)
        port.fire(retry)  # at 20 ms (half the deadline): copy goes to s-2
        kind, copy_id, targets = port.sent[-1]
        assert (kind, targets) == ("copy", ("s-2",)) and engine.retransmissions == 1
        port.clock = 30.0
        engine.on_reply(copy_id, "s-2", perf("s-2", ts=6.0, tq=1.0), "v")
        outcome = port.outcome("t-1")
        assert outcome.request_id == msg_id and outcome.replica == "s-2"
        assert outcome.response_time_ms == 30.0  # from t0, not from the copy
        # T_i = (t4 − copy's t1) − tq − ts = (30 − 20) − 7.
        assert engine.models.repository.record("s-2").gateway_delay_ms == pytest.approx(3.0)
        (timeout,) = port.armed(engine.expire)
        port.fire(timeout)  # s-1 never answered: the timeout drops the record
        assert engine.leaks() == {}


class TestHealthEvidence:
    """Health evidence per reply and retry, and the probe-expiry count."""

    def reply_at(self, t4):
        port = FakePort()
        engine = make_engine(
            port, policy=RankedPolicy(width=1), health_config=HealthConfig()
        )
        port.clock = 50.0  # t0 off zero: t4 + t0 must not pass for t4 − t0
        msg_id = engine.dispatch(REQUEST, "call", port.now, "t-1")
        port.clock = t4
        engine.on_reply(msg_id, "s-1", perf("s-1"), "v")
        return engine.health.record_for("s-1"), port.outcome("t-1")

    def test_a_reply_at_exactly_the_deadline_is_a_success(self):
        health, outcome = self.reply_at(150.0)
        assert (health.successes_total, health.faults_total) == (1, 0)
        assert outcome.timely and outcome.response_time_ms == 100.0

    def test_a_reply_one_tick_past_the_deadline_is_a_timing_fault(self):
        health, outcome = self.reply_at(math.nextafter(150.0, math.inf))
        assert (health.successes_total, health.faults_total) == (0, 1)
        assert health.last_fault_kind == "timing" and health.consecutive_omissions == 0
        assert not outcome.timely

    def test_a_retry_timer_bills_the_silent_replicas_as_omissions(self):
        port = FakePort()
        engine = make_engine(
            port, policy=RankedPolicy(width=1), retry=True, health_config=HealthConfig()
        )
        engine.dispatch(REQUEST, "call", port.now, "t-1")
        (retry,) = port.armed(engine.retransmit)
        port.fire(retry)
        silent = engine.health.record_for("s-1")
        assert (silent.consecutive_omissions, silent.last_fault_kind) == (1, "omission")
        assert engine.health.record_for("s-2").faults_total == 0
        assert port.sent[-1][0::2] == ("copy", ("s-2",))

    def test_an_expired_probe_is_counted_once(self):
        port = FakePort()
        engine = make_engine(port)
        assert engine.probes_expired == 0
        engine.send_probe("s-1")
        (expiry,) = port.armed(engine.expire_probe)
        port.fire(expiry)
        assert engine.probes_expired == 1 and engine.book.probes == {}
        engine.expire_probe(*expiry.args)  # a second firing finds nothing
        assert engine.probes_expired == 1
