"""Property test: the shipped pmf algebra against the §5.3 specification.

``repro.core.distribution`` builds the pmfs it derives itself (window
pmfs, shifts, scalings, every convolution kernel's output) through one
private path that neither re-validates nor re-sorts them, and rounds
atoms to 9 decimals.  ``tests/core/spec_model.py`` is the arithmetic of
§5.3.1 with none of that: relative frequencies on the 1 ms lattice,
pairwise sums, ``F`` up to ``t + 1e-9``.  Every kernel's output must be
the specification applied to its operands: ``F`` equal to 1e-12 with
atoms moved by no more than the rounding may move them, no atom without
mass.  The convolution laws (additive mean and variance, commutativity,
support from the sum of the minima to the sum of the maxima, the lattice
kernels equal to the pairwise one) hold of the specification's pairwise
sums, so agreement with it carries them.
Last bits are ``tests/core/test_pinned_bits.py``'s business.

The deterministic cases below name each kernel on each translate of the
lattice (``GRIDS``: a window pmf shifted by a ``T_i`` that need not be
integral stays tagged and convolves on the lattice); the hypothesis
chain then mixes them.  What agreement does not say comes after it: a
window pmf's own invariants, the sample counts of a sliding window, mass
and the lattice tag kept over long chains, a tagged pmf shifted by zero
being itself.  Outside input is
refused with the messages listed at the bottom.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import DiscretePMF, SampleCounts, _pairwise, batch_convolve

from ..core import spec_model as spec

# Offsets of the 1 ms lattice the deterministic cases run on.
GRIDS = [1.0, 0.25, 1e-3, 1e-6, 1e-9]


def twin(pmf):
    """The specification's view of a shipped pmf."""
    return dict(zip(pmf.values.tolist(), pmf.probs.tolist()))


def check(result, expected):
    """``result`` is the specification's ``expected``, and a valid pmf
    with mass on every atom."""
    assert spec.agrees(result, expected)
    assert result.validated() is result
    assert (result.probs > 0).all()
    assert [result.quantile(q) for q in (0.0, 1.0)] == [result.min(), result.max()]


def check_convolve(a, b):
    result = a.convolve(b)
    check(result, spec.convolve(twin(a), twin(b)))
    return result


# -- each kernel, each translate of the lattice --------------------------------


def lattice_samples(rng, count, spread):
    """``count`` lattice points within ``spread`` slots of a random base."""
    base = int(rng.integers(0, 50))
    return (base + rng.integers(0, spread, size=count)).astype(float).tolist()


def window(samples, offset=0.0):
    """The window pmf of ``samples`` shifted by ``offset``, checked."""
    pmf = DiscretePMF.from_samples(samples)
    check(pmf, spec.window_pmf(samples))
    assert pmf._lattice
    shifted = pmf.shift(offset)
    check(shifted, spec.affine(twin(pmf), delta=offset))
    assert shifted._lattice
    return shifted


@pytest.mark.parametrize("grid", GRIDS)
class TestEachKernelOnEachGrid:
    def test_window_pmf_and_its_shifts(self, grid):
        rng = np.random.default_rng(11)
        for count in (1, 2, 5, 7, 20, 60):
            jitter = rng.uniform(-0.45, 0.45, size=count)
            pmf = window((np.array(lattice_samples(rng, count, 12)) + jitter).tolist(), grid)
            for delta in (0.0, 1.0, 3.7, -2.0, 0.734):
                check(pmf.shift(delta), spec.affine(twin(pmf), delta=delta))
            for factor in (0.0, 0.5, 1.0, 1.75, 2.0, 8.0 / 3.0):
                scaled = pmf.scale(factor)
                assert not scaled._lattice
                check(scaled, spec.affine(twin(pmf), factor))

    def test_counts_under_add_and_evict(self, grid):
        rng = np.random.default_rng(12)
        counter, samples = SampleCounts(), []
        for _ in range(80):
            evicted = samples.pop(0) if len(samples) == 5 else None
            sample = float(rng.integers(0, 9) + rng.uniform(-0.4, 0.4) + grid)
            samples.append(sample)
            counter.replace(sample, evicted)
            assert counter.counts() == Counter(float(round(s)) for s in samples)
            assert len(counter) == len(samples)
            check(counter.pmf(), spec.window_pmf(samples))

    def test_singleton_operand_is_a_shift(self, grid):
        pmf = window(lattice_samples(np.random.default_rng(13), 5, 9), grid)
        single = window([3.0] * 4, grid)
        constant = DiscretePMF.degenerate(2.5 + grid)
        assert constant.items() == [(2.5 + grid, 1.0)]
        for a, b in (
            (pmf, single), (single, pmf), (single, single),
            (pmf, constant), (constant, pmf), (constant, single),
        ):
            # The other operand, shifted: its tag survives.
            kept = a if b.support_size == 1 else b
            assert check_convolve(a, b)._lattice == kept._lattice

    def test_lattice_direct(self, grid):
        rng = np.random.default_rng(14)
        for count in (2, 5, 20):
            a = window(lattice_samples(rng, count, 40), grid)
            b = window(lattice_samples(rng, count, 40))
            for left, right in ((a, b), (a, a)):
                assert check_convolve(left, right)._lattice

    def test_lattice_fft(self, grid):
        rng = np.random.default_rng(15)
        a = window(lattice_samples(rng, 60, 200), grid)
        b = window(lattice_samples(rng, 60, 300))
        assert a.max() - a.min() >= 64  # both past the FFT crossover
        assert b.max() - b.min() >= 64
        chained = check_convolve(check_convolve(a, b), a)  # FFT output as an operand
        assert chained._lattice
        check(chained.shift(0.5), spec.affine(twin(chained), delta=0.5))

    def test_pairwise(self, grid):
        rng = np.random.default_rng(16)
        tagged = window(lattice_samples(rng, 6, 30), grid)
        scaled = tagged.scale(1.3)  # leaves the lattice
        doubled = tagged.scale(2.0)  # untagged all the same
        outside = DiscretePMF(tagged.values, tagged.probs)  # same atoms, no tag
        for a, b in ((tagged, scaled), (scaled, scaled), (tagged, doubled), (tagged, outside)):
            assert not check_convolve(a, b)._lattice

    def test_batch(self, grid):
        rng = np.random.default_rng(17)

        def pmf(count, spread):
            return window(lattice_samples(rng, count, spread), grid)

        single = window([2.0], grid)
        outside = DiscretePMF([0.0, 0.3], [0.5, 0.5])
        pairs = [(pmf(5, 9), pmf(5, 9)) for _ in range(4)]
        pairs += [(pmf(60, 150), pmf(60, 90)), (pmf(5, 9), single)]
        pairs += [(single, pmf(3, 4)), (pmf(5, 9), outside)]
        results = batch_convolve(pairs)
        assert [r._lattice for r in results] == [True] * 7 + [False]
        for (a, b), result in zip(pairs, results):
            check(result, spec.convolve(twin(a), twin(b)))
        assert np.array_equal(results[-1].probs, _pairwise(pairs[-1:])[0].probs)


# -- chains ----------------------------------------------------------------------

slots = st.integers(min_value=0, max_value=400)
# Mostly on the lattice, sometimes up to 0.45 of a bin off it
# (counting rounds it back), sometimes a sub-bin hair.
jitter = st.sampled_from([0.0] * 4 + [0.45, -0.45, 0.2, 1e-7])


def sample_lists(min_size=1, max_size=24):
    return st.lists(st.tuples(slots, jitter), min_size=min_size, max_size=max_size)


untagged_values = st.lists(
    st.integers(min_value=-50_000, max_value=50_000), min_size=1, max_size=8, unique=True
).map(lambda ks: [k / 1000.0 for k in ks])

steps = st.one_of(
    st.tuples(st.just("samples"), sample_lists()),
    st.tuples(st.just("wide"), sample_lists(min_size=30, max_size=60)),
    st.tuples(
        st.just("window"),
        sample_lists(min_size=2, max_size=30),
        st.integers(min_value=1, max_value=7),
    ),
    st.tuples(st.just("untagged"), untagged_values, st.integers(min_value=0, max_value=10**6)),
    st.tuples(
        st.just("shift"),
        st.integers(min_value=0),
        st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, 0.734, 0.25]),
            st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        ),
    ),
    st.tuples(
        st.just("scale"),
        st.integers(min_value=0),
        st.one_of(
            st.sampled_from([0.0, 1.0, 0.5, 2.0]),
            st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
        ),
    ),
    st.tuples(st.just("convolve"), st.integers(min_value=0), st.integers(min_value=0)),
    st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
            min_size=1,
            max_size=5,
        ),
    ),
)


def weights(count, seed):
    raw = np.random.default_rng(seed).integers(1, 9, size=count)
    return (raw / raw.sum()).tolist()


def run_step(pool, step):
    """Apply one drawn step, checking it against the specification; return
    the new pmfs."""
    kind = step[0]
    if kind in ("samples", "wide"):
        return [window([k + off for k, off in step[1]])]
    if kind == "window":
        _, drawn, size = step
        counter, samples = SampleCounts(), []
        for k, off in drawn:
            sample = k % 12 + off
            counter.replace(sample, samples.pop(0) if len(samples) == size else None)
            samples.append(sample)
            assert len(counter) == len(samples)
            check(counter.pmf(), spec.window_pmf(samples))
        return [counter.pmf()]
    if kind == "untagged":
        _, values, seed = step
        probs = weights(len(values), seed)
        pmf = DiscretePMF(values, probs)
        check(pmf, dict(zip(values, probs)))
        return [pmf]
    if not pool:
        return []
    if kind == "shift":
        _, index, delta = step
        pmf = pool[index % len(pool)]
        result = pmf.shift(delta)
        check(result, spec.affine(twin(pmf), delta=delta))
        return [result]
    if kind == "scale":
        _, index, factor = step
        pmf = pool[index % len(pool)]
        result = pmf.scale(factor)
        check(result, spec.affine(twin(pmf), factor))
        return [result]
    if kind == "convolve":
        _, i, j = step
        return [check_convolve(pool[i % len(pool)], pool[j % len(pool)])]
    pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in step[1]]
    results = batch_convolve(pairs)
    kept = []
    for (a, b), result in zip(pairs, results):
        if a._lattice and b._lattice or 1 in (a.support_size, b.support_size):
            check(result, spec.convolve(twin(a), twin(b)))
            kept.append(result)
        else:  # the pairwise kernel's row: its own call, checked by "convolve"
            assert np.array_equal(result.probs, _pairwise([(a, b)])[0].probs)
    return kept


@given(drawn=st.lists(steps, min_size=6, max_size=30))
@settings(max_examples=100, deadline=None)
def test_any_chain_agrees_with_the_spec(drawn):
    pool = []
    for step in drawn:
        for pmf in run_step(pool, step):
            # A large support convolved again and again grows quadratically
            # on the pairwise path; the chain is about mixing, not size.
            # Atoms closer than the constructor allows (a scale towards 0)
            # have left what a pmf can hold.
            gaps = np.diff(pmf.values)
            if pmf.support_size <= 400 and (gaps.size == 0 or gaps.min() > 1e-6):
                pool.append(pmf)


# -- what agreement does not say -------------------------------------------------

# Measurement-like samples: non-negative, bounded, millisecond scale.
measurements = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=30
)


# A window pmf's own invariants: sorted distinct atoms of mass 1, ``F``
# monotone from 0 below them to 1 at the last, the mean among them,
# ``quantile`` inverting ``F``.
@given(measurements)
def test_probabilities_sum_to_one(values):
    pmf = DiscretePMF.from_samples(values)
    assert math.isclose(float(pmf.probs.sum()), 1.0, abs_tol=1e-9)


@given(measurements)
def test_values_sorted_and_unique(values):
    assert (np.diff(DiscretePMF.from_samples(values).values) > 0).all()


@given(measurements)
def test_cdf_is_monotone_nondecreasing(values):
    pmf = DiscretePMF.from_samples(values)
    cdfs = [pmf.cdf(t) for t in np.linspace(pmf.min() - 5, pmf.max() + 5, 40)]
    assert all(a <= b + 1e-12 for a, b in zip(cdfs, cdfs[1:]))


@given(measurements)
def test_cdf_limits(values):
    pmf = DiscretePMF.from_samples(values)
    assert pmf.cdf(pmf.min() - 1.0) == 0.0
    assert math.isclose(pmf.cdf(pmf.max()), 1.0, abs_tol=1e-9)


@given(measurements)
def test_mean_within_support(values):
    pmf = DiscretePMF.from_samples(values)
    assert pmf.min() - 1e-9 <= pmf.mean() <= pmf.max() + 1e-9


@given(measurements, st.floats(min_value=0.0, max_value=1.0))
def test_quantile_inverts_cdf(values, q):
    pmf = DiscretePMF.from_samples(values)
    assert pmf.cdf(pmf.quantile(q)) >= q - 1e-9


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


# -- many pairs, one pairwise-kernel call -------------------------------------

untagged_pairs = st.lists(
    st.tuples(
        sample_lists(min_size=2, max_size=12),
        sample_lists(min_size=2, max_size=12),
        st.sampled_from([0.5, 1.0, 2.0, 1.3]),  # 0.5, 1 and 2 collide across rows
        st.sampled_from([0.0, 0.25, 0.734]),
    ),
    min_size=1,
    max_size=6,
)


@given(drawn=untagged_pairs)
@settings(max_examples=60, deadline=None)
def test_one_kernel_call_is_each_pairs_own_call(drawn):
    pairs = []
    for left, right, factor, delta in drawn:
        a = DiscretePMF.from_samples([k % 40 + off for k, off in left]).shift(delta)
        b = DiscretePMF.from_samples([k % 40 + off for k, off in right]).scale(factor)
        if 1 not in (a.support_size, b.support_size):  # (a singleton is a shift)
            pairs.append((a, b))
    for (a, b), result in zip(pairs, batch_convolve(pairs)):
        alone = a.convolve(b)
        assert np.array_equal(result.values, alone.values)
        assert np.array_equal(result.probs, alone.probs)
        check(result, spec.convolve(twin(a), twin(b)))


# -- one dispatcher, every kind of pair ------------------------------------------

mixed_pairs = st.lists(
    st.tuples(
        st.sampled_from(["shift", "lattice", "untagged"]),
        sample_lists(min_size=2, max_size=20),
        sample_lists(min_size=2, max_size=20),
        st.sampled_from([0.0, 0.25, 0.734]),
        st.sampled_from([1, 40, 150]),  # slots: both sides of the FFT crossover
    ),
    min_size=1,
    max_size=6,
)


@given(drawn=mixed_pairs)
@settings(max_examples=60, deadline=None)
def test_one_call_settles_every_kind_of_pair(drawn):
    """A shift or untagged row is bitwise its own one-pair call, a lattice
    row (whose FFT is the call's) the specification's to 1e-12, and a
    one-pair call bitwise ``convolve``."""
    pairs = []
    for kind, left, right, delta, spread in drawn:
        a = DiscretePMF.from_samples([k % spread + off for k, off in left]).shift(delta)
        b = DiscretePMF.from_samples([k % 40 + off for k, off in right])
        if kind == "shift":
            b = DiscretePMF.degenerate(b.max())
        elif kind == "untagged":
            b = b.scale(1.3)
        pairs.append((a, b))
    results = batch_convolve(pairs)
    for (a, b), result in zip(pairs, results):
        check(result, spec.convolve(twin(a), twin(b)))
        alone = a.convolve(b)
        assert result._lattice == alone._lattice
        on_lattice = a._lattice and b._lattice and 1 not in (a.support_size, b.support_size)
        if len(pairs) == 1 or not on_lattice:
            assert np.array_equal(result.values, alone.values)
            assert np.array_equal(result.probs, alone.probs)


# -- outside input -------------------------------------------------------------


def attempt(build):
    """``build()``'s ``(values, probs)``, or the message it was refused with."""
    try:
        pmf = build()
    except (ValueError, ZeroDivisionError) as error:
        return f"{type(error).__name__}: {error}"
    return pmf.values.tolist(), pmf.probs.tolist()


CONSTRUCTOR_CASES = [
    (([], []), "ValueError: a pmf needs at least one atom"),
    (([1.0], []), "ValueError: values and probs must have equal length"),
    (([1.0, 2.0], [0.5]), "ValueError: values and probs must have equal length"),
    (([1.0, 2.0], [1.5, -0.5]), "ValueError: probabilities must be non-negative"),
    (([1.0, 2.0], [1.0 + 1e-11, -1e-11]), "ValueError: probabilities must be non-negative"),
    (([1.0], [0.5]), "ValueError: probabilities must sum to 1, got 0.5"),
    (([1.0], [1.0 + 1e-5]), "ValueError: probabilities must sum to 1, got 1.00001"),
    (([1.0, 2.0], [0.5, math.nan]), "ValueError: probabilities must sum to 1, got nan"),
    (([1.0, 1.0], [0.5, 0.5]), "ValueError: atoms must be more than 2e-09 apart, got 0.0"),
    (([0.0, 2e-9], [0.5, 0.5]), "ValueError: atoms must be more than 2e-09 apart, got 2e-09"),
    (([2.0, 1.0], [0.25, 0.75]), ([1.0, 2.0], [0.75, 0.25])),  # sorted
    (([0.0, 3e-9], [0.5, 0.5]), ([0.0, 3e-9], [0.5, 0.5])),
    (([0.0, 1.0], [1.0 + 1e-13, -1e-13]), ([0.0, 1.0], [1.0, 0.0])),  # dust clipped
    (([5.0], [1.0 + 1e-7]), ([5.0], [1.0])),  # renormalized
]


def test_the_public_constructor_rejects_exactly_what_it_rejected():
    for (values, probs), expected in CONSTRUCTOR_CASES:
        assert attempt(lambda: DiscretePMF(values, probs)) == expected


FROM_COUNTS_CASES = [
    ({}, "ValueError: cannot build a pmf from zero samples"),
    ({1.0: 0}, "ZeroDivisionError: float division by zero"),
    ({1.0: -1, 2.0: 2}, "ValueError: probabilities must be non-negative"),
    ({1.0: 1, 1.0 + 1e-9: 1}, "ValueError: atoms must be more than 2e-09 apart, got 1.000000082740371e-09"),
    ({3.0: 1, 1.0: 3}, ([1.0, 3.0], [0.75, 0.25])),
    ({1.0: 0, 2.0: 5}, ([1.0, 2.0], [0.0, 1.0])),  # an empty bin is kept
]


def test_from_counts_rejects_exactly_what_it_rejected():
    for counts, expected in FROM_COUNTS_CASES:
        assert attempt(lambda: DiscretePMF.from_counts(counts)) == expected


def test_a_validated_pmf_passes_the_constructors_own_check():
    pmf = DiscretePMF.from_samples([1, 2, 2, 5])
    assert pmf.validated() is pmf
    for probs, message in (
        ([0.5, -0.25, 0.75], "non-negative"),
        ([0.5, 0.25, 0.125], "sum to 1"),
        ([0.5, math.nan, 0.5], "sum to 1"),
    ):
        pmf._probs = np.array(probs)
        with pytest.raises(ValueError, match=message):
            pmf.validated()
