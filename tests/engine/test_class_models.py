"""ClassModels: per-class history, shared T_i, view sync and leak checks."""

from repro.engine import DEFAULT_CLASS, ClassModels, EngineConfig, method_classifier
from repro.orb.object import MethodRequest

from .fakes import REPLICAS, SERVICE, perf


def classified() -> ClassModels:
    models = ClassModels(EngineConfig(window_size=3, classifier=method_classifier))
    models.sync(REPLICAS)
    return models


def test_default_class_always_exists_and_is_the_public_alias():
    models = ClassModels(EngineConfig())
    assert models.classes() == [DEFAULT_CLASS]
    assert models.repository is models.repository_for(DEFAULT_CLASS)
    assert models.estimator is models.estimator_for(DEFAULT_CLASS)


def test_samples_are_filed_under_the_class_of_the_request_they_served():
    models = classified()
    heavy = MethodRequest(SERVICE, "heavy")
    assert models.record(perf("s-1", ts=40.0, request=heavy), now_ms=1.0)
    assert models.record(perf("s-1", ts=2.0), now_ms=1.0)  # unclassified push
    assert models.classes() == [DEFAULT_CLASS, "heavy"]
    assert models.repository_for("heavy").record("s-1").service_times.values() == [40.0]
    assert models.repository.record("s-1").service_times.values() == [2.0]


def test_gateway_delay_is_shared_with_the_default_class():
    models = classified()
    models.record_gateway_delay("heavy", "s-1", 3.0, now_ms=1.0)
    assert models.repository_for("heavy").record("s-1").gateway_delay_ms == 3.0
    assert models.repository.record("s-1").gateway_delay_ms == 3.0
    assert models.classes() == [DEFAULT_CLASS, "heavy"]


def test_probe_results_fan_out_to_every_class():
    models = classified()
    models.repository_for("heavy")
    models.record_probe("s-2", round_trip_ms=2.5, queue_length=4, now_ms=9.0)
    for key in models.classes():
        record = models.repository_for(key).record("s-2")
        assert (record.gateway_delay_ms, record.queue_length) == (2.5, 4)


def test_evicted_replica_is_not_resurrected_by_a_stale_push():
    models = classified()
    models.sync(["s-1"])
    assert models.record(perf("s-2"), now_ms=1.0) is False
    assert models.repository.replicas() == ["s-1"]
    assert models.leaks(now_ms=1.0) == {}


def test_new_classes_are_born_with_the_current_view():
    models = classified()
    models.sync(["s-3"])
    assert models.repository_for("late").replicas() == ["s-3"]


def test_staleness_scan_covers_every_class():
    models = classified()
    models.record(perf("s-1"), now_ms=10.0)
    models.record(perf("s-2", request=MethodRequest(SERVICE, "heavy")), now_ms=95.0)
    # s-1 is fresh nowhere but default@10; in class "heavy" it is cold.
    assert models.stale(now_ms=100.0, threshold_ms=50.0) == set(REPLICAS)
    assert "s-2" not in {
        name
        for name in models.repository_for("heavy").replicas()
        if models.repository_for("heavy").record(name).staleness(100.0) > 50.0
    }


def test_leak_report_names_resurrected_and_future_stamped_replicas():
    models = classified()
    models.record(perf("s-1"), now_ms=500.0)
    models.members = ["s-1", "s-2"]  # the view moved on without a sync
    assert models.leaks(now_ms=100.0) == {
        "resurrected_replicas": ["s-3"],
        "future_stamped_records": ["s-1"],
    }
