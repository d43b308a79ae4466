"""Unit tests for structured tracing."""

from repro.sim.trace import NullTracer, Tracer


def test_emit_records_fields():
    tracer = Tracer()
    tracer.emit(1.5, "client-1", "request.sent", msg_id=7)
    record = tracer.records[0]
    assert record.time == 1.5
    assert record.source == "client-1"
    assert record.kind == "request.sent"
    assert record.data == {"msg_id": 7}


def test_of_kind_and_from_source_filter():
    tracer = Tracer()
    tracer.emit(1.0, "a", "x")
    tracer.emit(2.0, "b", "x")
    tracer.emit(3.0, "a", "y")
    assert [r.source for r in tracer.of_kind("x")] == ["a", "b"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(0.0, "s", "k")
    assert len(tracer) == 0


def test_null_tracer_is_inert():
    tracer = NullTracer()
    tracer.emit(0.0, "s", "k")
    assert len(tracer) == 0
