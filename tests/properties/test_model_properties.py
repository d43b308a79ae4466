"""Property-based tests for the Equation 1 model and supporting stats."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.model import min_replicas_needed, subset_timeliness_probability
from repro.metrics.stats import RunningStats

probs = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


@given(probs)
def test_subset_probability_in_unit_interval(values):
    p = subset_timeliness_probability(values)
    assert 0.0 <= p <= 1.0


@given(probs)
def test_subset_probability_at_least_best_member(values):
    # The earliest-reply race can only help: P_K >= max individual F.
    p = subset_timeliness_probability(values)
    assert p >= max(values) - 1e-12


@given(probs, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_monotone_in_added_member(values, extra):
    base = subset_timeliness_probability(values)
    extended = subset_timeliness_probability(values + [extra])
    assert extended >= base - 1e-12


@given(probs)
def test_order_invariance(values):
    forward = subset_timeliness_probability(values)
    backward = subset_timeliness_probability(list(reversed(values)))
    assert math.isclose(forward, backward, abs_tol=1e-12)


@given(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
)
def test_min_replicas_is_minimal(p, target):
    k = min_replicas_needed(p, target)
    assert subset_timeliness_probability([p] * k) >= target - 1e-9
    if k > 1:
        assert subset_timeliness_probability([p] * (k - 1)) < target


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_running_stats_matches_batch(values):
    stats = RunningStats()
    stats.extend(values)
    mean = sum(values) / len(values)
    assert math.isclose(stats.mean, mean, rel_tol=1e-9, abs_tol=1e-6)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
