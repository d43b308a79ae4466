"""Property test: the shipped pmf algebra against the one it replaced.

``repro.core.distribution`` builds the pmfs it derives itself (window
pmfs, shifts, scalings, every convolution kernel's output) through one
private path that neither re-validates nor re-sorts them.  The module it
replaced — every pmf through the validating constructor — is kept
verbatim in ``tests/core/distribution_oracle.py``.  For any chain of
constructions and operations over any grid the two must agree
**bitwise**: ``values``, ``probs`` and ``cumulative_probs()`` byte for
byte, ``resolution()`` / ``dust_tolerance()`` / ``cdf`` / ``quantile``
with ``==``.  The pinned experiment digests sit on those last bits.

The deterministic cases below name each kernel on each grid (a chain
drawn at random need not reach the FFT); the hypothesis chains then mix
them.  Outside input keeps every check it had: the last test holds the
two constructors to the same accept/reject decision and message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import distribution as shipped

from ..core import distribution_oracle as oracle

GRIDS = [1.0, 0.25, 1e-3, 1e-6, 1e-9]
QUANTILES = [0.0, 0.1, 0.5, 0.9, 1.0]


def assert_same(ours, theirs):
    """Bitwise equality of a shipped pmf and its oracle twin."""
    assert ours.bin_width == theirs.bin_width
    assert ours.values.tobytes() == theirs.values.tobytes()
    assert ours.probs.tobytes() == theirs.probs.tobytes()
    assert ours.cumulative_probs().tobytes() == theirs.cumulative_probs().tobytes()
    assert ours.resolution() == theirs.resolution()
    assert ours.dust_tolerance() == theirs.dust_tolerance()
    values = ours.values.tolist()
    gap = ours.dust_tolerance()
    probes = values + [v - gap for v in values] + [v + 2 * gap for v in values]
    probes += [(a + b) / 2 for a, b in zip(values, values[1:])]
    assert [ours.cdf(t) for t in probes] == [theirs.cdf(t) for t in probes]
    assert [ours.quantile(q) for q in QUANTILES] == [
        theirs.quantile(q) for q in QUANTILES
    ]


def both(build):
    """The same construction in the shipped module and in the oracle."""
    return build(shipped), build(oracle)


def convolve_both(a, b):
    """``a ⊛ b`` on both sides; a grid mismatch must be one on both."""
    try:
        theirs = a[1].convolve(b[1])
    except oracle.BinWidthMismatchError:
        with pytest.raises(shipped.BinWidthMismatchError):
            a[0].convolve(b[0])
        return None
    return a[0].convolve(b[0]), theirs


# -- each kernel, each grid ----------------------------------------------------


def grid_samples(rng, grid, count, spread):
    """``count`` samples within ``spread`` slots of a random offset."""
    base = int(rng.integers(0, 50))
    return ((base + rng.integers(0, spread, size=count)) * grid).tolist()


@pytest.mark.parametrize("grid", GRIDS)
class TestEachKernelOnEachGrid:
    def test_window_pmf_and_its_shifts(self, grid):
        rng = np.random.default_rng(11)
        for count in (1, 2, 5, 7, 20, 60):
            samples = grid_samples(rng, grid, count, 12)
            pmf = both(lambda m: m.DiscretePMF.from_samples(samples, grid))
            assert_same(*pmf)
            for delta in (0.0, grid, 3.7 * grid, -2 * grid, 0.734):
                assert_same(pmf[0].shift(delta), pmf[1].shift(delta))
            for factor in (0.0, 0.5, 1.0, 1.75, 8.0 / 3.0):
                assert_same(pmf[0].scale(factor), pmf[1].scale(factor))

    def test_counts_under_add_and_evict(self, grid):
        rng = np.random.default_rng(12)
        ours, theirs = both(lambda m: m.SampleCounts(grid))
        window = []
        for _ in range(80):
            if len(window) == 5:
                evicted = window.pop(0)
                ours.evict(evicted)
                theirs.evict(evicted)
            sample = float(rng.integers(0, 9) * grid + rng.uniform(-0.4, 0.4) * grid)
            window.append(sample)
            ours.add(sample)
            theirs.add(sample)
            assert ours.counts() == theirs.counts()
            assert_same(ours.pmf(), theirs.pmf())

    def test_singleton_operand_is_a_shift(self, grid):
        samples = grid_samples(np.random.default_rng(13), grid, 5, 9)
        pmf = both(lambda m: m.DiscretePMF.from_samples(samples, grid))
        single = both(lambda m: m.DiscretePMF.from_samples([3 * grid] * 4, grid))
        constant = both(lambda m: m.DiscretePMF.degenerate(2.5 * grid))  # untagged
        assert_same(*constant)
        for a, b in (
            (pmf, single), (single, pmf), (single, single),
            (pmf, constant), (constant, pmf), (constant, single),
        ):
            assert_same(*convolve_both(a, b))

    def test_lattice_direct(self, grid):
        rng = np.random.default_rng(14)
        for count in (2, 5, 20):
            sa, sb = grid_samples(rng, grid, count, 40), grid_samples(rng, grid, count, 40)
            a = both(lambda m: m.DiscretePMF.from_samples(sa, grid))
            b = both(lambda m: m.DiscretePMF.from_samples(sb, grid))
            assert_same(*convolve_both(a, b))
            assert_same(*convolve_both(a, a))

    def test_lattice_fft(self, grid):
        rng = np.random.default_rng(15)
        sa, sb = grid_samples(rng, grid, 60, 200), grid_samples(rng, grid, 60, 300)
        a = both(lambda m: m.DiscretePMF.from_samples(sa, grid))
        b = both(lambda m: m.DiscretePMF.from_samples(sb, grid))
        assert a[0].max() - a[0].min() >= 64 * grid  # both past the FFT crossover
        assert b[0].max() - b[0].min() >= 64 * grid
        assert_same(*convolve_both(a, b))
        chained = convolve_both(convolve_both(a, b), a)  # FFT output as an operand
        assert_same(*chained)
        assert_same(chained[0].shift(0.5 * grid), chained[1].shift(0.5 * grid))

    def test_pairwise(self, grid):
        rng = np.random.default_rng(16)
        samples = grid_samples(rng, grid, 6, 30)
        tagged = both(lambda m: m.DiscretePMF.from_samples(samples, grid))
        scaled = tagged[0].scale(1.3), tagged[1].scale(1.3)  # leaves the grid: untagged
        stale = both(  # tagged, but not on the lattice it claims
            lambda m: m.DiscretePMF([0.0, 0.3 * grid, 2.0 * grid], [0.2, 0.3, 0.5], grid)
        )
        for a, b in ((tagged, scaled), (scaled, scaled), (tagged, stale), (stale, stale)):
            assert_same(*convolve_both(a, b))

    def test_batch(self, grid):
        rng = np.random.default_rng(17)

        def pmf(count, spread):
            samples = grid_samples(rng, grid, count, spread)
            return both(lambda m: m.DiscretePMF.from_samples(samples, grid))

        single = both(lambda m: m.DiscretePMF.from_samples([2 * grid], grid))
        untagged = both(lambda m: m.DiscretePMF([0.0, 0.3], [0.5, 0.5]))
        pairs = [(pmf(5, 9), pmf(5, 9)) for _ in range(4)]
        pairs += [(pmf(60, 150), pmf(60, 90)), (pmf(5, 9), single)]
        pairs += [(single, pmf(3, 4)), (pmf(5, 9), untagged)]
        ours = shipped.batch_convolve([(a[0], b[0]) for a, b in pairs])
        theirs = oracle.batch_convolve([(a[1], b[1]) for a, b in pairs])
        assert [r is None for r in ours] == [r is None for r in theirs]
        assert [r is None for r in ours] == [False] * 7 + [True]
        for mine, reference in zip(ours, theirs):
            if mine is not None:
                assert_same(mine, reference)


def test_mismatched_grids_refuse_on_both_sides():
    a = both(lambda m: m.DiscretePMF.from_samples([1, 2, 3], 1.0))
    b = both(lambda m: m.DiscretePMF.from_samples([1, 2, 3], 0.25))
    assert convolve_both(a, b) is None
    with pytest.raises(shipped.BinWidthMismatchError):
        shipped.batch_convolve([(a[0], b[0])])


# -- chains ----------------------------------------------------------------------

# A chain lives on one grid, so that its pmfs convolve on the lattice; now
# and then a pmf is built on another one (``None``: the chain's own).
grids = st.sampled_from([None] * 8 + GRIDS)
slots = st.integers(min_value=0, max_value=400)
# Mostly on-grid, sometimes up to 0.45 of a bin off it (quantization
# rounds it back), sometimes a sub-grid hair.
jitter = st.sampled_from([0.0] * 4 + [0.45, -0.45, 0.2, 1e-7])


def sample_lists(min_size=1, max_size=24):
    return st.lists(st.tuples(slots, jitter), min_size=min_size, max_size=max_size)


untagged_values = st.lists(
    st.integers(min_value=-50_000, max_value=50_000), min_size=1, max_size=8, unique=True
).map(lambda ks: [k / 1000.0 for k in ks])

steps = st.one_of(
    st.tuples(st.just("samples"), grids, sample_lists()),
    st.tuples(st.just("wide"), grids, sample_lists(min_size=30, max_size=60)),
    st.tuples(
        st.just("window"),
        grids,
        sample_lists(min_size=2, max_size=30),
        st.integers(min_value=1, max_value=7),
    ),
    st.tuples(st.just("untagged"), untagged_values, st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("stale"), grids, untagged_values),
    st.tuples(
        st.just("shift"),
        st.integers(min_value=0),
        st.one_of(
            st.sampled_from([0.0, 1.0, -1.0, 0.734]),
            st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        ),
        st.booleans(),  # in units of the pmf's own grid, or absolute
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


def run_step(pool, step, chain_grid):
    """Apply one drawn step to both sides; new pmfs join the pool."""
    kind = step[0]
    if kind in ("samples", "wide", "window", "stale"):
        step = (kind, step[1] or chain_grid, *step[2:])
    if kind in ("samples", "wide"):
        _, grid, drawn = step
        samples = [(k + off) * grid for k, off in drawn]
        pool.append(both(lambda m: m.DiscretePMF.from_samples(samples, grid)))
    elif kind == "window":
        _, grid, drawn, size = step
        ours, theirs = both(lambda m: m.SampleCounts(grid))
        window = []
        for k, off in drawn:
            sample = (k % 12 + off) * grid
            if len(window) == size:
                evicted = window.pop(0)
                ours.replace(sample, evicted)
                theirs.replace(sample, evicted)
            else:
                ours.add(sample)
                theirs.add(sample)
            window.append(sample)
            assert_same(ours.pmf(), theirs.pmf())
        pool.append((ours.pmf(), theirs.pmf()))
    elif kind == "untagged":
        _, values, seed = step
        probs = weights(len(values), seed)
        pool.append(both(lambda m: m.DiscretePMF(values, probs)))
    elif kind == "stale":
        _, grid, values = step
        probs = weights(len(values), len(values))
        scaled = [v * grid for v in values]
        pool.append(both(lambda m: m.DiscretePMF(scaled, probs, bin_width=grid)))
    elif not pool:
        return
    elif kind == "shift":
        _, index, delta, in_grid_units = step
        ours, theirs = pool[index % len(pool)]
        if in_grid_units and ours.bin_width is not None:
            delta *= ours.bin_width
        pool.append((ours.shift(delta), theirs.shift(delta)))
    elif kind == "scale":
        _, index, factor = step
        ours, theirs = pool[index % len(pool)]
        pool.append((ours.scale(factor), theirs.scale(factor)))
    elif kind == "convolve":
        _, i, j = step
        result = convolve_both(pool[i % len(pool)], pool[j % len(pool)])
        if result is not None:
            pool.append(result)
    else:
        pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in step[1]]
        try:
            theirs = oracle.batch_convolve([(a[1], b[1]) for a, b in pairs])
        except oracle.BinWidthMismatchError:
            with pytest.raises(shipped.BinWidthMismatchError):
                shipped.batch_convolve([(a[0], b[0]) for a, b in pairs])
            return
        ours = shipped.batch_convolve([(a[0], b[0]) for a, b in pairs])
        assert [r is None for r in ours] == [r is None for r in theirs]
        pool.extend(pair for pair in zip(ours, theirs) if pair[0] is not None)


@given(chain_grid=st.sampled_from(GRIDS), drawn=st.lists(steps, min_size=6, max_size=30))
@settings(max_examples=150, deadline=None)
def test_any_chain_is_bitwise_the_oracle(chain_grid, drawn):
    pool = []
    for step in drawn:
        before = len(pool)
        run_step(pool, step, chain_grid)
        for ours, theirs in pool[before:]:
            assert_same(ours, theirs)
        # A large support convolved again and again grows quadratically
        # on the pairwise path; the chain is about mixing, not size.
        pool[:] = [pair for pair in pool if pair[0].support_size <= 2500]


# -- outside input keeps every check -------------------------------------------


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
    bin_width=st.sampled_from([None, 1.0, 1e-6, 0.0, -1.0]),
)
@settings(max_examples=300, deadline=None)
def test_the_public_constructor_rejects_exactly_what_it_rejected(
    values, probs, bin_width
):
    def attempt(module):
        try:
            return module.DiscretePMF(values, probs, bin_width=bin_width)
        except ValueError as error:
            return str(error)

    ours, theirs = attempt(shipped), attempt(oracle)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        assert_same(ours, theirs)


@given(
    counts=st.dictionaries(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=-1, max_value=5),
        max_size=5,
    ),
    bin_width=st.sampled_from([None, 1.0, 0.0]),
)
@settings(max_examples=200, deadline=None)
def test_from_counts_rejects_exactly_what_it_rejected(counts, bin_width):
    def attempt(module):
        try:
            return module.DiscretePMF.from_counts(counts, bin_width=bin_width)
        except (ValueError, ZeroDivisionError) as error:
            return f"{type(error).__name__}: {error}"

    ours, theirs = attempt(shipped), attempt(oracle)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        assert_same(ours, theirs)


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
