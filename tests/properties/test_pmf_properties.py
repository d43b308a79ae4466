"""Property-based tests for :class:`DiscretePMF` (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import DiscretePMF, batch_convolve

# Measurement-like samples: non-negative, bounded, millisecond scale.
samples = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(samples)
def test_probabilities_sum_to_one(values):
    pmf = DiscretePMF.from_samples(values)
    assert math.isclose(float(pmf.probs.sum()), 1.0, abs_tol=1e-9)


@given(samples)
def test_values_sorted_and_unique(values):
    pmf = DiscretePMF.from_samples(values)
    diffs = np.diff(pmf.values)
    assert (diffs > 0).all()


@given(samples)
def test_cdf_is_monotone_nondecreasing(values):
    pmf = DiscretePMF.from_samples(values)
    points = np.linspace(pmf.min() - 5, pmf.max() + 5, 40)
    cdfs = [pmf.cdf(t) for t in points]
    assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))


@given(samples)
def test_cdf_limits(values):
    pmf = DiscretePMF.from_samples(values)
    assert pmf.cdf(pmf.min() - 1.0) == 0.0
    assert math.isclose(pmf.cdf(pmf.max()), 1.0, abs_tol=1e-9)


@given(samples)
def test_mean_within_support(values):
    pmf = DiscretePMF.from_samples(values)
    assert pmf.min() - 1e-9 <= pmf.mean() <= pmf.max() + 1e-9


@given(samples, samples)
def test_convolution_mean_additive(a_values, b_values):
    a = DiscretePMF.from_samples(a_values)
    b = DiscretePMF.from_samples(b_values)
    combined = a.convolve(b)
    assert math.isclose(
        combined.mean(), a.mean() + b.mean(), rel_tol=1e-9, abs_tol=1e-6
    )


@given(samples, samples)
def test_convolution_support_bounds(a_values, b_values):
    a = DiscretePMF.from_samples(a_values)
    b = DiscretePMF.from_samples(b_values)
    combined = a.convolve(b)
    assert math.isclose(combined.min(), a.min() + b.min(), abs_tol=1e-6)
    assert math.isclose(combined.max(), a.max() + b.max(), abs_tol=1e-6)


@given(samples, samples)
def test_convolution_commutative(a_values, b_values):
    a = DiscretePMF.from_samples(a_values)
    b = DiscretePMF.from_samples(b_values)
    assert a.convolve(b).allclose(b.convolve(a), tol=1e-9)


@given(samples, st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_shift_translates_cdf(values, delta):
    pmf = DiscretePMF.from_samples(values)
    shifted = pmf.shift(delta)
    for t in np.linspace(pmf.min(), pmf.max(), 10):
        assert math.isclose(
            pmf.cdf(t), shifted.cdf(t + delta), abs_tol=1e-9
        )


@given(samples, samples)
def test_variance_additive_under_convolution(a_values, b_values):
    # Independence: Var(S + W) = Var(S) + Var(W).
    a = DiscretePMF.from_samples(a_values)
    b = DiscretePMF.from_samples(b_values)
    combined = a.convolve(b)
    assert math.isclose(
        combined.variance(),
        a.variance() + b.variance(),
        rel_tol=1e-6,
        abs_tol=1e-5,
    )


@given(samples, st.floats(min_value=0.0, max_value=1.0))
def test_quantile_inverts_cdf(values, q):
    pmf = DiscretePMF.from_samples(values)
    value = pmf.quantile(q)
    assert pmf.cdf(value) >= q - 1e-9


# -- ISSUE 7: mass conservation over dense/FFT convolution chains ----------

chain_samples = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    min_size=2,
    max_size=6,
)


@settings(deadline=None, max_examples=40)
@given(chain_samples)
def test_convolution_chain_conserves_mass(sample_sets):
    """Long S⊛W⊛… chains stay normalized, non-negative and on-grid.

    The FFT path leaves ± round-off noise in empty lattice slots; the
    kernel clamps it and renormalizes, so no matter how many convolutions
    are chained the result is still an exact probability vector.
    """
    pmfs = [DiscretePMF.from_samples(s) for s in sample_sets]
    chained = pmfs[0]
    for pmf in pmfs[1:]:
        chained = chained.convolve(pmf)
    assert math.isclose(float(chained.probs.sum()), 1.0, abs_tol=1e-12)
    assert (chained.probs >= 0.0).all()
    assert chained._lattice
    # Support stays on the lattice.
    assert np.array_equal(chained.values, np.rint(chained.values))
    # The chained mean is the sum of the operand means (convolution
    # identity) — a drifting mass would break this first.
    assert math.isclose(
        chained.mean(), sum(p.mean() for p in pmfs), rel_tol=1e-9, abs_tol=1e-6
    )


@settings(deadline=None, max_examples=30)
@given(chain_samples)
def test_chain_matches_pairwise_reference(sample_sets):
    """The dense/FFT chain equals the exact pairwise path, fold for fold."""
    pmfs = [DiscretePMF.from_samples(s) for s in sample_sets]
    fast = pmfs[0]
    slow = DiscretePMF(pmfs[0].values, pmfs[0].probs)  # untagged twin
    for pmf in pmfs[1:]:
        fast = fast.convolve(pmf)
        slow = slow.convolve(DiscretePMF(pmf.values, pmf.probs))
    assert fast.support_size == slow.support_size
    assert np.allclose(fast.values, slow.values, atol=1e-9)
    assert np.allclose(fast.probs, slow.probs, atol=1e-9)


# Lattice-point samples; a span of 64 slots or more puts a product on
# the FFT kernel, less on the direct one.
narrow = st.lists(st.integers(0, 40), min_size=2, max_size=12)
wide = st.lists(st.integers(0, 400), min_size=2, max_size=60).map(lambda s: s + [0, 300])


@st.composite
def tagged_pmfs(draw):
    """A tagged pmf from one constructor, shifted by an arbitrary ``T ≥ 0``."""

    def window(samples):
        return DiscretePMF.from_samples([float(s) for s in samples])

    kind = draw(st.sampled_from(["window", "direct", "fft", "batch"]))
    if kind == "window":
        pmf = window(draw(st.one_of(narrow, wide)))
    elif kind == "direct":
        pmf = window(draw(narrow)).convolve(window(draw(narrow)))
    elif kind == "fft":
        pmf = window(draw(wide)).convolve(window(draw(wide)))
    else:
        pairs = [(window(draw(narrow)), window(draw(wide))) for _ in range(2)]
        pmf = batch_convolve(pairs)[draw(st.integers(0, 1))]
    assert pmf._lattice
    # The grid is exact while an atom times 1e9 stays far below 2**53.
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e4, allow_nan=False)))
    return pmf.shift(delta)


@settings(deadline=None, max_examples=60)
@given(tagged_pmfs())
def test_a_tagged_pmf_shifted_by_zero_is_itself(pmf):
    """Its atoms are on the grid, so the computing path would give its bits."""
    assert pmf.shift(0.0) is pmf
    assert (pmf.values + 0.0).round(9).tobytes() == pmf.values.tobytes()
    assert not np.signbit(pmf.values).any()
