"""Unit tests for the metrics collector."""


from repro.metrics.collector import MetricsCollector


def test_observe_and_stats():
    collector = MetricsCollector()
    for value in (10.0, 20.0, 30.0):
        collector.observe("latency", value)
    stats = collector.stats("latency")
    assert stats.count == 3
    assert stats.mean == 20.0


def test_unseen_metric_has_empty_stats():
    collector = MetricsCollector()
    assert collector.stats("nope").count == 0


def test_labels_partition_observations():
    collector = MetricsCollector()
    collector.observe("latency", 10.0, labels={"client": "a"})
    collector.observe("latency", 30.0, labels={"client": "b"})
    assert collector.stats("latency", {"client": "a"}).mean == 10.0
    assert collector.stats("latency", {"client": "b"}).mean == 30.0
    assert collector.stats("latency").count == 0  # unlabeled is separate


def test_label_order_does_not_matter():
    collector = MetricsCollector()
    collector.observe("m", 1.0, labels={"a": "1", "b": "2"})
    assert collector.stats("m", {"b": "2", "a": "1"}).count == 1


def test_counters():
    collector = MetricsCollector()
    collector.increment("failures")
    collector.increment("failures", 2)
    # Nothing in the package reads a count back; only its label sets.
    assert collector._counters == {("failures", ()): 3}
    assert collector.label_sets("failures") == [{}]
    assert collector.label_sets("unseen") == []


def test_samples_retained_by_default():
    collector = MetricsCollector()
    collector.observe("m", 1.0)
    collector.observe("m", 2.0)
    assert collector.samples("m") == [1.0, 2.0]
    assert collector.summary("m").count == 2


def test_samples_dropped_when_disabled():
    collector = MetricsCollector(keep_samples=False)
    collector.observe("m", 1.0)
    assert collector.samples("m") == []
    assert collector.stats("m").count == 1  # running stats still work


def test_label_sets():
    collector = MetricsCollector()
    collector.observe("m", 1.0, labels={"x": "1"})
    collector.observe("m", 2.0, labels={"x": "2"})
    label_sets = collector.label_sets("m")
    assert {"x": "1"} in label_sets
    assert {"x": "2"} in label_sets


def test_clear():
    collector = MetricsCollector()
    collector.observe("m", 1.0)
    collector.increment("c")
    collector.clear()
    assert collector.stats("m").count == 0
    assert collector.label_sets("c") == []
