"""Property test: the shipped pmf algebra against the one it replaced.

``repro.core.distribution`` builds the pmfs it derives itself (window
pmfs, shifts, scalings, every convolution kernel's output) through one
private path that neither re-validates nor re-sorts them.  The module it
replaced — every pmf through the validating constructor — is kept
verbatim in ``tests/core/distribution_oracle.py``, grid machinery
included: per-pmf rounding decimals and dust tolerances derived from the
atom spacing, float grid tags, the mismatch error and the sparse-lattice
guard.  The shipped module keeps one lattice (1 ms bins), 9 decimals and
a 1e-9 tolerance — what the oracle derives itself wherever atoms are at
least 1e-6 apart.  There the two must agree **bitwise**: ``values``,
``probs`` and ``cumulative_probs()`` byte for byte, the lattice tag,
``cdf`` / ``quantile`` with ``==``.  The pinned experiment digests sit on
those last bits.

The deterministic cases below name each kernel on each translate of the
lattice (``GRIDS``: a window pmf shifted by a ``T_i`` that need not be
integral stays tagged and convolves on the lattice); the hypothesis
chains then mix them.  Outside input keeps every check it had, and one
more: the constructor refuses atoms its tolerance would conflate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distribution as shipped
from repro.core.distribution import CDF_TOLERANCE

from ..core import distribution_oracle as oracle

# Offsets of the 1 ms lattice the deterministic cases run on.
GRIDS = [1.0, 0.25, 1e-3, 1e-6, 1e-9]
QUANTILES = [0.0, 0.1, 0.5, 0.9, 1.0]


def one_lattice(theirs, factor=1.0):
    """Whether the oracle derives the shipped constants for ``theirs``
    (scaled by ``factor``): 9 decimals and a 1e-9 dust tolerance."""
    return (
        oracle._grid_decimals(theirs._spacing() * factor) == 9
        and theirs.dust_tolerance() == CDF_TOLERANCE
    )


def assert_same(ours, theirs, read=True):
    """Bitwise equality of a shipped pmf and its oracle twin.

    ``F`` is compared too unless ``read`` is false — for a result whose
    atoms are so close that the oracle derived a finer tolerance.
    """
    assert ours._lattice == (theirs.bin_width is not None)
    assert theirs.bin_width in (None, shipped.BIN_WIDTH_MS)
    assert ours.values.tobytes() == theirs.values.tobytes()
    assert ours.probs.tobytes() == theirs.probs.tobytes()
    assert ours.cumulative_probs().tobytes() == theirs.cumulative_probs().tobytes()
    assert [ours.quantile(q) for q in QUANTILES] == [
        theirs.quantile(q) for q in QUANTILES
    ]
    if not read:
        return
    assert theirs.dust_tolerance() == CDF_TOLERANCE
    values = ours.values.tolist()
    gap = CDF_TOLERANCE
    probes = values + [v - gap for v in values] + [v + 2 * gap for v in values]
    probes += [(a + b) / 2 for a, b in zip(values, values[1:])]
    assert [ours.cdf(t) for t in probes] == [theirs.cdf(t) for t in probes]


def window(samples, offset=0.0):
    """The window pmf of ``samples`` on both sides, shifted by ``offset``."""
    return (
        shipped.DiscretePMF.from_samples(samples).shift(offset),
        oracle.DiscretePMF.from_samples(samples, 1.0).shift(offset),
    )


def untagged(values, probs):
    """The same outside input through both public constructors."""
    return shipped.DiscretePMF(values, probs), oracle.DiscretePMF(values, probs)


def declined(a, b):
    """Whether the oracle's sparse-lattice guard sends this tagged pair to
    the pairwise kernel — a fallback the shipped module no longer has."""
    settled, lattice = oracle._dense_admission(a[1], b[1])
    tagged = a[1].bin_width is not None and b[1].bin_width is not None
    return tagged and settled is None and lattice is None


def convolve_both(a, b):
    """``a ⊛ b`` on both sides."""
    return a[0].convolve(b[0]), a[1].convolve(b[1])


# -- each kernel, each translate of the lattice --------------------------------


def lattice_samples(rng, count, spread):
    """``count`` lattice points within ``spread`` slots of a random base."""
    base = int(rng.integers(0, 50))
    return (base + rng.integers(0, spread, size=count)).astype(float).tolist()


@pytest.mark.parametrize("grid", GRIDS)
class TestEachKernelOnEachGrid:
    def test_window_pmf_and_its_shifts(self, grid):
        rng = np.random.default_rng(11)
        for count in (1, 2, 5, 7, 20, 60):
            jitter = rng.uniform(-0.45, 0.45, size=count)
            pmf = window((np.array(lattice_samples(rng, count, 12)) + jitter).tolist())
            assert_same(*pmf)
            pmf = pmf[0].shift(grid), pmf[1].shift(grid)
            assert_same(*pmf)
            for delta in (0.0, 1.0, 3.7, -2.0, 0.734):
                assert_same(pmf[0].shift(delta), pmf[1].shift(delta))
            for factor in (0.0, 0.5, 1.0, 1.75, 2.0, 8.0 / 3.0):
                assert_same(pmf[0].scale(factor), pmf[1].scale(factor))

    def test_counts_under_add_and_evict(self, grid):
        rng = np.random.default_rng(12)
        ours, theirs = shipped.SampleCounts(), oracle.SampleCounts(1.0)
        samples = []
        for _ in range(80):
            if len(samples) == 5:
                evicted = samples.pop(0)
                ours.evict(evicted)
                theirs.evict(evicted)
            sample = float(rng.integers(0, 9) + rng.uniform(-0.4, 0.4) + grid)
            samples.append(sample)
            ours.add(sample)
            theirs.add(sample)
            assert ours.counts() == theirs.counts()
            assert_same(ours.pmf(), theirs.pmf())

    def test_singleton_operand_is_a_shift(self, grid):
        pmf = window(lattice_samples(np.random.default_rng(13), 5, 9), grid)
        single = window([3.0] * 4, grid)
        constant = (
            shipped.DiscretePMF.degenerate(2.5 + grid),
            oracle.DiscretePMF.degenerate(2.5 + grid),
        )
        assert_same(*constant)
        for a, b in (
            (pmf, single), (single, pmf), (single, single),
            (pmf, constant), (constant, pmf), (constant, single),
        ):
            assert_same(*convolve_both(a, b))

    def test_lattice_direct(self, grid):
        rng = np.random.default_rng(14)
        for count in (2, 5, 20):
            a = window(lattice_samples(rng, count, 40), grid)
            b = window(lattice_samples(rng, count, 40))
            for pair in (convolve_both(a, b), convolve_both(a, a)):
                assert pair[0]._lattice
                assert_same(*pair)

    def test_lattice_fft(self, grid):
        rng = np.random.default_rng(15)
        a = window(lattice_samples(rng, 60, 200), grid)
        b = window(lattice_samples(rng, 60, 300))
        assert a[0].max() - a[0].min() >= 64  # both past the FFT crossover
        assert b[0].max() - b[0].min() >= 64
        assert_same(*convolve_both(a, b))
        chained = convolve_both(convolve_both(a, b), a)  # FFT output as an operand
        assert chained[0]._lattice
        assert_same(*chained)
        assert_same(chained[0].shift(0.5), chained[1].shift(0.5))

    def test_pairwise(self, grid):
        rng = np.random.default_rng(16)
        tagged = window(lattice_samples(rng, 6, 30), grid)
        scaled = tagged[0].scale(1.3), tagged[1].scale(1.3)  # leaves the lattice
        doubled = tagged[0].scale(2.0), tagged[1].scale(2.0)  # untagged all the same
        twin = untagged(tagged[0].values, tagged[0].probs)  # same atoms, no tag
        for a, b in (
            (tagged, scaled), (scaled, scaled), (tagged, doubled), (tagged, twin),
        ):
            result = convolve_both(a, b)
            assert not result[0]._lattice
            assert_same(*result)

    def test_batch(self, grid):
        rng = np.random.default_rng(17)

        def pmf(count, spread):
            return window(lattice_samples(rng, count, spread), grid)

        single = window([2.0], grid)
        outside = untagged([0.0, 0.3], [0.5, 0.5])
        pairs = [(pmf(5, 9), pmf(5, 9)) for _ in range(4)]
        pairs += [(pmf(60, 150), pmf(60, 90)), (pmf(5, 9), single)]
        pairs += [(single, pmf(3, 4)), (pmf(5, 9), outside)]
        ours = shipped.batch_convolve([(a[0], b[0]) for a, b in pairs])
        theirs = oracle.batch_convolve([(a[1], b[1]) for a, b in pairs])
        assert [r is None for r in ours] == [r is None for r in theirs]
        assert [r is None for r in ours] == [False] * 7 + [True]
        for mine, reference in zip(ours, theirs):
            if mine is not None:
                assert_same(mine, reference)


# -- chains ----------------------------------------------------------------------

slots = st.integers(min_value=0, max_value=400)
# Mostly on the lattice, sometimes up to 0.45 of a bin off it
# (quantization rounds it back), sometimes a sub-bin hair.
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
    """Apply one drawn step to both sides; return the new pmf pairs.

    A step the oracle would compute with anything but the shipped
    constants (finer rounding, or its sparse-lattice fallback) is not
    taken.
    """
    kind = step[0]
    if kind in ("samples", "wide"):
        return [window([k + off for k, off in step[1]])]
    if kind == "window":
        _, drawn, size = step
        ours, theirs = shipped.SampleCounts(), oracle.SampleCounts(1.0)
        samples = []
        for k, off in drawn:
            sample = k % 12 + off
            if len(samples) == size:
                evicted = samples.pop(0)
                ours.replace(sample, evicted)
                theirs.replace(sample, evicted)
            else:
                ours.add(sample)
                theirs.add(sample)
            samples.append(sample)
            assert_same(ours.pmf(), theirs.pmf())
        return [(ours.pmf(), theirs.pmf())]
    if kind == "untagged":
        _, values, seed = step
        return [untagged(values, weights(len(values), seed))]
    if not pool:
        return []
    if kind == "shift":
        _, index, delta = step
        ours, theirs = pool[index % len(pool)]
        return [(ours.shift(delta), theirs.shift(delta))]
    if kind == "scale":
        _, index, factor = step
        ours, theirs = pool[index % len(pool)]
        if not one_lattice(theirs, factor):
            return []
        return [(ours.scale(factor), theirs.scale(factor))]
    if kind == "convolve":
        _, i, j = step
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        return [] if declined(a, b) else [convolve_both(a, b)]
    pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in step[1]]
    if any(declined(a, b) for a, b in pairs):
        return []
    ours = shipped.batch_convolve([(a[0], b[0]) for a, b in pairs])
    theirs = oracle.batch_convolve([(a[1], b[1]) for a, b in pairs])
    assert [r is None for r in ours] == [r is None for r in theirs]
    return [pair for pair in zip(ours, theirs) if pair[0] is not None]


@given(drawn=st.lists(steps, min_size=6, max_size=30))
@settings(max_examples=150, deadline=None)
def test_any_chain_is_bitwise_the_oracle(drawn):
    pool = []
    for step in drawn:
        for ours, theirs in run_step(pool, step):
            on_lattice = one_lattice(theirs)
            assert_same(ours, theirs, read=theirs.dust_tolerance() == CDF_TOLERANCE)
            # A large support convolved again and again grows quadratically
            # on the pairwise path; the chain is about mixing, not size.
            if on_lattice and ours.support_size <= 2500:
                pool.append((ours, theirs))


# -- outside input keeps every check -------------------------------------------


def attempt(build):
    """``build()``, or the message it was refused with."""
    try:
        return build()
    except (ValueError, ZeroDivisionError) as error:
        return f"{type(error).__name__}: {error}"


def same_verdict(ours, theirs):
    """Refused alike, or accepted alike; only atoms ≤ 2e-9 apart, which
    the oracle took, are now refused."""
    if isinstance(theirs, str):
        assert ours == theirs
    elif isinstance(ours, str):
        assert ours.startswith("ValueError: atoms must be more than 2e-09 apart")
        assert theirs.resolution() <= 2 * CDF_TOLERANCE
    else:
        assert_same(ours, theirs, read=theirs.dust_tolerance() == CDF_TOLERANCE)


@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=4),
    probs=st.lists(
        st.one_of(
            st.sampled_from(
                [0.0, 0.25, 0.5, 1.0, -1e-13, -1e-11, 0.5 + 1e-7, 0.5 + 1e-5, math.nan]
            ),
            st.floats(min_value=-0.5, max_value=1.5),
        ),
        max_size=4,
    ),
)
@settings(max_examples=300, deadline=None)
def test_the_public_constructor_rejects_exactly_what_it_rejected(values, probs):
    same_verdict(
        attempt(lambda: shipped.DiscretePMF(values, probs)),
        attempt(lambda: oracle.DiscretePMF(values, probs)),
    )


@given(
    counts=st.dictionaries(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=-1, max_value=5),
        max_size=5,
    ),
)
@settings(max_examples=200, deadline=None)
def test_from_counts_rejects_exactly_what_it_rejected(counts):
    same_verdict(
        attempt(lambda: shipped.DiscretePMF.from_counts(counts)),
        attempt(lambda: oracle.DiscretePMF.from_counts(counts)),
    )


def test_a_validated_pmf_passes_the_constructors_own_check():
    pmf = shipped.DiscretePMF.from_samples([1, 2, 2, 5])
    assert pmf.validated() is pmf
    for probs, message in (
        ([0.5, -0.25, 0.75], "non-negative"),
        ([0.5, 0.25, 0.125], "sum to 1"),
        ([0.5, math.nan, 0.5], "sum to 1"),
    ):
        pmf._probs = np.array(probs)
        with pytest.raises(ValueError, match=message):
            pmf.validated()
