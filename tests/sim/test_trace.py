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
    assert len(tracer.of_kind("x")) == 2
    assert len(list(tracer.select(source="a"))) == 2


def test_select_time_window():
    tracer = Tracer()
    for t in (1.0, 5.0, 9.0):
        tracer.emit(t, "s", "k")
    selected = list(tracer.select(kind="k", since=2.0, until=8.0))
    assert [r.time for r in selected] == [5.0]


def test_listeners_get_records_synchronously():
    tracer = Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit(0.0, "s", "k")
    assert len(seen) == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(0.0, "s", "k")
    assert len(tracer) == 0


def test_null_tracer_is_inert():
    tracer = NullTracer()
    tracer.emit(0.0, "s", "k")
    assert len(tracer) == 0


def test_clear_keeps_listeners():
    tracer = Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit(0.0, "s", "k")
    tracer.clear()
    assert len(tracer) == 0
    tracer.emit(1.0, "s", "k")
    assert len(seen) == 2
