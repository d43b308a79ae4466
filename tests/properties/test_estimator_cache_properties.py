"""Property-based tests for the estimator's stored pmfs.

The contract (docs/PERFORMANCE.md): for *any* interleaving of performance
pushes and gateway-delay updates — each push both appends and, once the
window is full, evicts — the estimator must return the pmfs §5.3 builds
from the raw window samples (``tests/core/spec_model.py``, to 1e-12), and
a push must always replace the stored pmf.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import SampleCounts
from repro.core.estimator import QueueScaledEstimator, ResponseTimeEstimator
from repro.core.repository import InformationRepository

from ..core import spec_model as spec

# One repository mutation: a replica performance push or a gateway-delay
# measurement, with millisecond-scale values.
perf_ops = st.tuples(
    st.just("perf"),
    st.sampled_from(["r1", "r2"]),
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=0, max_value=5),
)
gateway_ops = st.tuples(
    st.just("gateway"),
    st.sampled_from(["r1", "r2"]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
op_sequences = st.lists(st.one_of(perf_ops, gateway_ops), min_size=1, max_size=30)
window_sizes = st.integers(min_value=1, max_value=6)


def matches(pmf, record, queue_scaled=False):
    """``pmf`` is the record's §5.3 response-time pmf (``None`` alike)."""
    expected = spec.response_time(record, queue_scaled)
    assert pmf is None if expected is None else spec.agrees(pmf, expected)


def _apply(repo, op, now):
    if op[0] == "perf":
        _, name, service, queue, depth = op
        repo.record_performance(name, service, queue, depth, now_ms=now)
    else:
        _, name, delay = op
        repo.record_gateway_delay(name, delay, now_ms=now)


@given(op_sequences, window_sizes)
@settings(max_examples=60)
def test_cached_pmfs_match_from_scratch_rebuild(ops, window_size):
    """Random push/evict sequences: cached == uncached, at every step."""
    repo = InformationRepository(window_size=window_size)
    cached = ResponseTimeEstimator(repo)
    for step, op in enumerate(ops):
        _apply(repo, op, float(step))
        for name in repo.replicas():
            matches(cached.response_time_pmf(name), repo.record(name))


@given(op_sequences)
@settings(max_examples=40)
def test_cached_pmfs_match_with_gateway_windows(ops):
    """Same contract with the §5.3.1 T_i-as-distribution extension."""
    repo = InformationRepository(window_size=4, gateway_window_size=3)
    cached = ResponseTimeEstimator(repo)
    for step, op in enumerate(ops):
        _apply(repo, op, float(step))
    for name in repo.replicas():
        cached.response_time_pmf(name)
        matches(cached.response_time_pmf(name), repo.record(name))  # the memo


@given(op_sequences)
@settings(max_examples=40)
def test_queue_scaled_cached_matches_rebuild(ops):
    """The queue-depth-scaled variant obeys the same cache contract."""
    repo = InformationRepository(window_size=4)
    cached = QueueScaledEstimator(repo)
    for step, op in enumerate(ops):
        _apply(repo, op, float(step))
        for name in repo.replicas():
            matches(cached.response_time_pmf(name), repo.record(name), True)


@given(op_sequences)
@settings(max_examples=40)
def test_batch_probabilities_match_scalar_queries(ops):
    repo = InformationRepository(window_size=4)
    estimator = ResponseTimeEstimator(repo)
    for step, op in enumerate(ops):
        _apply(repo, op, float(step))
    replicas = repo.replicas()
    for deadline in (0.0, 50.0, 150.0, 700.0):
        batched = estimator.batch_probability_by(replicas, deadline)
        for name, probability in zip(replicas, batched):
            expected = estimator.probability_by(name, deadline)
            if expected is None:
                assert probability is None
            else:
                assert probability == pytest.approx(expected, abs=1e-12)
                assert probability == pytest.approx(
                    spec.probability_by(repo.record(name), deadline), abs=1e-12
                )


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40)
def test_version_bump_always_invalidates(extra_samples):
    """Every push moves the window version and replaces the stored pmf."""
    repo = InformationRepository(window_size=3)
    repo.record_performance("r1", 100.0, 5.0, 1, now_ms=0.0)
    repo.record_gateway_delay("r1", 3.0, now_ms=0.0)
    estimator = ResponseTimeEstimator(repo)
    previous = estimator.response_time_pmf("r1")
    for step, sample in enumerate(extra_samples):
        record = repo.record("r1")
        version_before = (
            record.service_times.version,
            record.queue_delays.version,
        )
        repo.record_performance("r1", sample, sample / 2.0, 0, now_ms=float(step))
        version_after = (
            record.service_times.version,
            record.queue_delays.version,
        )
        assert version_after > version_before  # push bumps the version
        current = estimator.response_time_pmf("r1")
        assert current is not previous  # the entry was re-derived
        matches(current, repo.record("r1"))
        previous = current


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=5,
        max_size=40,
    ),
)
@settings(max_examples=60)
def test_incremental_counts_track_any_window(stream):
    """SampleCounts under sliding eviction: the window's relative frequencies."""
    window_size = 4
    window = []
    counter = SampleCounts()
    for sample in stream:
        evicted = window.pop(0) if len(window) == window_size else None
        window.append(sample)
        counter.replace(sample, evicted)
        assert len(counter) == len(window)
        assert spec.agrees(counter.pmf(), spec.window_pmf(window))
