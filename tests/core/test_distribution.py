"""Unit tests for empirical pmfs and discrete convolution."""

import math

import numpy as np
import pytest

from repro.core.distribution import (
    _FFT_CROSSOVER,
    CDF_TOLERANCE,
    DiscretePMF,
    SampleCounts,
    _lattice,
    _pairwise,
    batch_convolve,
)

from . import spec_model as spec


def _assert_close(actual, expected):
    """Same atoms and probabilities, to 1e-9."""
    np.testing.assert_allclose(actual.values, expected.values, rtol=0, atol=1e-9)
    np.testing.assert_allclose(actual.probs, expected.probs, rtol=0, atol=1e-9)


class TestQuantize:
    def test_rounds_to_bin_grid(self):
        assert SampleCounts([10.4, 10.6]).counts() == {10.0: 1, 11.0: 1}


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscretePMF([], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DiscretePMF([1.0], [0.5, 0.5])

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            DiscretePMF([1.0, 2.0], [0.4, 0.4])

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            DiscretePMF([1.0, 2.0], [1.5, -0.5])

    def test_values_sorted_on_construction(self):
        pmf = DiscretePMF([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert list(pmf.values) == [1.0, 2.0, 3.0]
        assert list(pmf.probs) == [0.5, 0.3, 0.2]

    def test_from_samples_relative_frequency(self):
        pmf = DiscretePMF.from_samples([10, 10, 10, 20])
        assert pmf.items() == [(10.0, 0.75), (20.0, 0.25)]

    def test_from_samples_bins_nearby_values(self):
        pmf = DiscretePMF.from_samples([9.6, 10.2, 10.4])
        assert pmf.items() == [(10.0, 1.0)]

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscretePMF.from_samples([])

    def test_degenerate(self):
        pmf = DiscretePMF.degenerate(7.0)
        assert pmf.mean() == 7.0
        assert pmf.cdf(6.9) == 0.0
        assert pmf.cdf(7.0) == 1.0


class TestStatistics:
    def test_mean_and_variance(self):
        pmf = DiscretePMF([0.0, 10.0], [0.5, 0.5])
        assert pmf.mean() == 5.0
        assert pmf.variance() == 25.0

    def test_cdf_is_right_continuous_step(self):
        pmf = DiscretePMF([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert pmf.cdf(0.5) == 0.0
        assert pmf.cdf(1.0) == pytest.approx(0.2)
        assert pmf.cdf(2.5) == pytest.approx(0.5)
        assert pmf.cdf(3.0) == pytest.approx(1.0)
        assert pmf.cdf(100.0) == 1.0

    def test_cdf_is_exactly_one_from_the_last_atom_on(self):
        # Ten bins of 1/10 sum to 1 - 1.1e-16: the last atom, and a
        # deadline within the tolerance below it, read 1.0, not the sum.
        pmf = DiscretePMF.from_samples([float(k) for k in range(10)])
        assert pmf.cumulative_probs()[-1] < 1.0
        assert pmf.cdf(9.0 - CDF_TOLERANCE) == pmf.cdf(9.0) == 1.0

    def test_cdf_reads_infinities_and_refuses_nan(self):
        pmf = DiscretePMF([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert pmf.cdf(-math.inf) == 0.0
        assert pmf.cdf(math.inf) == 1.0
        with pytest.raises(ValueError, match="nan"):
            pmf.cdf(math.nan)

    def test_quantile(self):
        pmf = DiscretePMF([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert pmf.quantile(0.1) == 1.0
        assert pmf.quantile(0.2) == 1.0
        assert pmf.quantile(0.5) == 2.0
        assert pmf.quantile(1.0) == 3.0

    def test_quantile_validation(self):
        pmf = DiscretePMF.degenerate(1.0)
        with pytest.raises(ValueError):
            pmf.quantile(1.5)

    def test_min_max(self):
        pmf = DiscretePMF([5.0, 1.0], [0.5, 0.5])
        assert pmf.min() == 1.0
        assert pmf.max() == 5.0


class TestAlgebra:
    def test_shift_moves_support(self):
        pmf = DiscretePMF([1.0, 2.0], [0.5, 0.5]).shift(3.0)
        assert list(pmf.values) == [4.0, 5.0]
        assert pmf.mean() == pytest.approx(4.5)

    def test_scale(self):
        pmf = DiscretePMF([1.0, 2.0], [0.5, 0.5]).scale(2.0)
        assert list(pmf.values) == [2.0, 4.0]

    def test_scale_by_zero_collapses_to_origin(self):
        pmf = DiscretePMF([1.0, 2.0], [0.5, 0.5]).scale(0.0)
        assert pmf.items() == [(0.0, 1.0)]

    def test_scale_rejects_negative(self):
        with pytest.raises(ValueError):
            DiscretePMF.degenerate(1.0).scale(-1.0)

    def test_shift_and_scale_of_a_divided_pmf_sum_and_renormalise_again(self):
        # [0.7, 0.2, 0.1] sums to 1 - 2**-53, so the constructor divided it,
        # and the quotient sums to 1 + 2**-52: a derived pmf passing that
        # array on must sum it and divide again, not take its mass as 1.
        pmf = DiscretePMF([1.0, 2.0, 3.0], [0.7, 0.2, 0.1])
        kept = pmf.probs.copy()
        assert kept.sum() != 1.0
        for derived in (pmf.shift(0.5), pmf.scale(1.5)):
            assert derived.probs.tobytes() == (kept / kept.sum()).tobytes()
            assert derived.probs.tobytes() != kept.tobytes()

    def test_convolution_of_degenerates_is_sum(self):
        a = DiscretePMF.degenerate(3.0)
        b = DiscretePMF.degenerate(4.0)
        assert a.convolve(b).items() == [(7.0, 1.0)]

    def test_convolution_matches_hand_computation(self):
        # Two fair coins over {0, 1}: sum ~ {0: .25, 1: .5, 2: .25}
        coin = DiscretePMF([0.0, 1.0], [0.5, 0.5])
        total = coin.convolve(coin)
        assert total.items() == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]

    def test_convolution_mean_is_additive(self):
        a = DiscretePMF.from_samples([10, 12, 14, 16])
        b = DiscretePMF.from_samples([1, 2, 3])
        assert a.convolve(b).mean() == pytest.approx(a.mean() + b.mean())

    def test_convolution_via_add_operator(self):
        a = DiscretePMF.degenerate(1.0)
        b = DiscretePMF.degenerate(2.0)
        assert (a + b).items() == [(3.0, 1.0)]

    def test_convolution_is_commutative(self):
        a = DiscretePMF.from_samples([1, 5, 5, 9])
        b = DiscretePMF.from_samples([0, 2, 2, 4, 4])
        _assert_close(a.convolve(b), b.convolve(a))

    def test_equation_2_composition(self):
        # R = S + W + T with T a constant shift (paper Equation 2).
        service = DiscretePMF.from_samples([100, 100, 120, 140, 100])
        queueing = DiscretePMF.from_samples([0, 0, 10, 10, 30])
        response = service.convolve(queueing).shift(3.0)
        assert response.mean() == pytest.approx(
            service.mean() + queueing.mean() + 3.0
        )
        assert response.min() == pytest.approx(103.0)
        assert response.max() == pytest.approx(173.0)


class TestSampleCounts:
    """The incremental count-delta backend of ``from_samples``."""

    def test_matches_from_samples(self):
        samples = [10.2, 10.4, 9.8, 20.1, 20.1]
        counter = SampleCounts(samples)
        _assert_close(counter.pmf(), DiscretePMF.from_samples(samples))

    def test_add_then_evict_restores_counts(self):
        counter = SampleCounts([10.0, 20.0])
        before = counter.counts()
        counter.replace(30.0, evicted=10.0)
        counter.replace(10.0, evicted=30.0)
        assert counter.counts() == before
        assert len(counter) == 2

    def test_replace_is_evict_plus_add(self):
        counter = SampleCounts([10.0, 20.0])
        counter.replace(30.0, evicted=10.0)
        assert counter.counts() == {20.0: 1, 30.0: 1}

    def test_evict_missing_sample_rejected(self):
        counter = SampleCounts([10.0])
        with pytest.raises(ValueError, match="cannot evict 99.0"):
            counter.replace(5.0, evicted=99.0)
        assert counter.counts() == {10.0: 1}

    def test_sliding_stream_equals_full_recount(self):
        # Emulate a size-4 sliding window over a long stream.
        rng = np.random.default_rng(3)
        stream = rng.uniform(0.0, 50.0, size=40).tolist()
        window = []
        counter = SampleCounts()
        for sample in stream:
            evicted = window.pop(0) if len(window) == 4 else None
            window.append(sample)
            counter.replace(sample, evicted)
            _assert_close(counter.pmf(), DiscretePMF.from_samples(window))

    @pytest.mark.parametrize("scale", [1.0, 2.0, 0.5, 0.25, 0.1, 1e-3, 3e-7, 1e-9])
    def test_bin_keys_are_the_floats_quantize_returns(self, scale):
        # The keys must stay bit-identical to the two rounds, because pmf
        # support values are compared and hashed as floats downstream;
        # samples far below the lattice all count at its origin.
        rng = np.random.default_rng(11)
        samples = (rng.uniform(-5.0, 400.0, size=500) * scale).tolist()
        counter = SampleCounts(samples)
        expected = {}
        for sample in samples:
            key = round(round(sample / 1.0) * 1.0, 9)  # the 1 ms lattice point
            expected[key] = expected.get(key, 0) + 1
        assert counter.counts() == expected
        assert [k.hex() for k in sorted(counter.counts())] == [
            k.hex() for k in sorted(expected)
        ]


def _bits(pmf):
    """Everything a pmf is, as bytes: atoms, probabilities, tag, exact mass."""
    return (pmf.values.tobytes(), pmf.probs.tobytes(), pmf._lattice, pmf._unit)


class TestKeptWindowPmf:
    """A window's pmf is a value of its counts: kept until a count changes."""

    def test_pmf_is_the_same_object_until_a_count_changes(self):
        counter = SampleCounts([1.0, 2.0, 2.2])
        pmf = counter.pmf()
        assert counter.pmf() is pmf
        counter.replace(2.4, evicted=1.8)  # one bin (2.0): no count changes
        assert counter.pmf() is pmf
        assert counter.counts() == {1.0: 1, 2.0: 2}
        assert len(counter) == 3

    @pytest.mark.parametrize(
        "change, window",
        [
            (lambda c: c.add(7.0), [1.0, 2.0, 2.2, 7.0]),
            (lambda c: c.replace(7.0, evicted=1.0), [2.0, 2.2, 7.0]),
            (lambda c: c.replace(7.0), [1.0, 2.0, 2.2, 7.0]),
        ],
        ids=["add", "cross-bin replace", "replace without eviction"],
    )
    def test_a_changed_count_drops_it_and_rebuilds_the_same_bits(self, change, window):
        counter = SampleCounts([1.0, 2.0, 2.2])
        pmf = counter.pmf()
        change(counter)
        rebuilt = counter.pmf()
        assert rebuilt is not pmf
        assert _bits(rebuilt) == _bits(SampleCounts(window).pmf())

    def test_a_same_bin_replace_still_refuses_an_empty_bin(self):
        counter = SampleCounts([1.0])
        pmf = counter.pmf()
        with pytest.raises(ValueError, match="bin 5.0 is empty"):
            counter.replace(5.2, evicted=4.9)
        assert counter.counts() == {1.0: 1}
        assert counter.pmf() is pmf

    def test_no_samples_no_pmf(self):
        with pytest.raises(ValueError, match="zero samples"):
            SampleCounts().pmf()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_replace_that_fails_changes_nothing(self, bad):
        counter = SampleCounts([1.0, 2.0])
        pmf = counter.pmf()
        with pytest.raises((ValueError, OverflowError)):
            counter.replace(bad, evicted=1.0)
        assert counter.counts() == {1.0: 1, 2.0: 1}
        assert len(counter) == 2
        assert counter.pmf() is pmf


class TestShiftByZero:
    """``shift(0.0)`` of a tagged pmf with no negative atom is the pmf itself."""

    def test_a_window_pmf_shifted_by_zero_is_itself(self):
        pmf = DiscretePMF.from_samples([0.0, 3.0, 3.0, 8.0])
        assert pmf.shift(0.0) is pmf
        assert pmf.shift(-0.0) is pmf
        zero = DiscretePMF.from_samples([0.0])
        assert pmf.convolve(zero) is pmf  # S ⊛ {0} is S
        assert zero.convolve(pmf) is pmf

    @pytest.mark.parametrize(
        "pmf",
        [
            # 1 − 1.0000000001 rounds to -0.0 on the 9-decimal grid.
            DiscretePMF.from_samples([1.0, 2.0]).shift(-1.0000000001),
            DiscretePMF.from_samples([1.0, 5.0]).shift(-3.0),
            DiscretePMF([0.0, 2.0], [0.5, 0.5]),  # untagged
        ],
        ids=["-0.0 atom", "negative atoms", "untagged"],
    )
    def test_the_other_pmfs_take_the_computing_path(self, pmf):
        shifted = pmf.shift(0.0)
        assert shifted is not pmf
        assert shifted.values.tobytes() == (pmf.values + 0.0).round(9).tobytes()
        assert shifted._lattice == pmf._lattice

    def test_the_minus_zero_atom_becomes_plus_zero(self):
        pmf = DiscretePMF.from_samples([1.0, 2.0]).shift(-1.0000000001)
        assert np.signbit(pmf.values[0]) and pmf.values[0] == 0.0
        assert not np.signbit(pmf.shift(0.0).values[0])


class TestFromCounts:
    def test_from_counts_matches_from_samples(self):
        pmf = DiscretePMF.from_counts({10.0: 3, 20.0: 1})
        assert pmf.items() == [(10.0, 0.75), (20.0, 0.25)]

    def test_from_counts_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscretePMF.from_counts({})


class TestMicrosecondScaleBins:
    """What the one lattice makes of input finer than itself.

    Samples are counted on the 1 ms lattice whatever their scale.  Atoms
    handed to the constructor may sit anywhere, microseconds apart
    included — but not within ``2 · CDF_TOLERANCE`` of each other, where
    ``F``'s dust tolerance would conflate them: those are refused.
    """

    def test_constructor_rejects_atoms_the_tolerance_would_merge(self):
        for values in (
            [3e-9, 4e-9],
            [7.5e-9, 7.5e-9],
            [0.0, 1.0, 1.0 + 1e-9],
            [0.0, 2 * CDF_TOLERANCE],  # exactly twice apart is still too close
        ):
            with pytest.raises(ValueError, match="apart"):
                DiscretePMF(values, [1.0 / len(values)] * len(values))
        pmf = DiscretePMF([0.0, 2.5 * CDF_TOLERANCE], [0.5, 0.5])
        assert pmf.cdf(0.0) == 0.5
        assert pmf.cdf(2.5 * CDF_TOLERANCE) == 1.0
        with pytest.raises(ValueError, match="apart"):
            DiscretePMF.from_counts({1e-10: 1, 2e-10: 1})

    def test_from_samples_counts_micro_samples_on_the_lattice(self):
        pmf = DiscretePMF.from_samples([1e-6, 2e-6, 2e-6, 3e-6, 0.7])
        assert pmf.items() == [(0.0, 0.8), (1.0, 0.2)]

    def test_cdf_includes_atom_at_micro_scale(self):
        pmf = DiscretePMF([1e-6, 2e-6], [0.5, 0.5])
        assert pmf.cdf(1e-6) == pytest.approx(0.5)
        assert pmf.cdf(0.5e-6) == 0.0
        assert pmf.cdf(2e-6) == 1.0

    def test_cdf_tolerance_is_one_constant(self):
        # Dust below 1e-9 is absorbed at every scale; 1e-8 is not.
        for scale in (1e-6, 1.0, 1e3):
            pmf = DiscretePMF([scale, 2 * scale], [0.5, 0.5])
            assert pmf.cdf(scale - 0.5 * CDF_TOLERANCE) == 0.5
            assert pmf.cdf(scale - 10 * CDF_TOLERANCE) == 0.0

    def test_convolution_on_micro_grid(self):
        a = DiscretePMF([1e-6, 2e-6], [0.5, 0.5])
        b = DiscretePMF([1e-6, 3e-6], [0.5, 0.5])
        combined = a.convolve(b)
        assert combined.support_size == 4  # 2, 3, 4, 5 microseconds
        assert combined.mean() == pytest.approx(a.mean() + b.mean())

    def test_shift_keeps_micro_grid(self):
        pmf = DiscretePMF([1e-6, 2e-6], [0.5, 0.5]).shift(5e-6)
        assert pmf.min() == pytest.approx(6e-6, rel=1e-9)
        assert pmf.support_size == 2

    def test_singletons_keep_nine_decimals_and_1e9(self):
        window = DiscretePMF.from_samples([3.0])
        constant = DiscretePMF.degenerate(0.5)
        assert window.shift(0.1234567894).values.tolist() == [3.123456789]
        assert constant.shift(0.1234567894).values.tolist() == [0.623456789]
        for pmf in (window, constant):
            assert pmf.cdf(pmf.min() - 0.5 * CDF_TOLERANCE) == 1.0
            assert pmf.cdf(pmf.min() - 2 * CDF_TOLERANCE) == 0.0

    def test_millisecond_grids_keep_historical_tolerance(self):
        # Coarse grids must not loosen: 1e-9 dust absorbed, 1e-4 is not.
        pmf = DiscretePMF.from_samples([10.0, 20.0])
        assert pmf.cdf(10.0 - 5e-10) == pytest.approx(0.5)
        assert pmf.cdf(10.0 - 1e-4) == 0.0


class TestConvolveFastPaths:
    def test_degenerate_right_operand_is_shift(self):
        pmf = DiscretePMF.from_samples([1.0, 2.0, 3.0])
        shifted = pmf.convolve(DiscretePMF.degenerate(5.0))
        _assert_close(shifted, pmf.shift(5.0))

    def test_degenerate_left_operand_is_shift(self):
        pmf = DiscretePMF.from_samples([1.0, 2.0, 3.0])
        shifted = DiscretePMF.degenerate(5.0).convolve(pmf)
        _assert_close(shifted, pmf.shift(5.0))

    def test_fast_path_matches_outer_product(self):
        # Reference result computed without the fast path.
        pmf = DiscretePMF.from_samples([1.0, 2.0, 2.0, 4.0])
        single = DiscretePMF.degenerate(3.0)
        sums = np.add.outer(pmf.values, single.values).ravel()
        weights = np.multiply.outer(pmf.probs, single.probs).ravel()
        reference = DiscretePMF(np.round(sums, 9), weights)
        _assert_close(pmf.convolve(single), reference)


def _reference_convolve(a, b):
    """Pure-python dict convolution — the pre-vectorization semantics."""
    sums = {}
    for va, pa in a.items():
        for vb, pb in b.items():
            key = round(va + vb, 9)
            sums[key] = sums.get(key, 0.0) + pa * pb
    values = sorted(sums)
    return values, [sums[v] for v in values]


def _random_grid_pmf(rng, size, spread=None):
    """A lattice-tagged pmf with exactly ``size`` atoms."""
    spread = spread if spread is not None else max(4 * size, 8)
    lattice = rng.choice(spread, size=size, replace=False)
    return DiscretePMF.from_samples(np.repeat(lattice, rng.integers(1, 20, size)))


def _assert_matches_reference(result, a, b):
    ref_values, ref_probs = _reference_convolve(a, b)
    assert result.support_size == len(ref_values)
    assert np.allclose(result.values, ref_values, atol=1e-9)
    assert np.allclose(result.probs, ref_probs, atol=1e-9)
    assert result.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestLatticeConvolution:
    """The dense direct/FFT kernel vs the pure-python reference."""

    @pytest.mark.parametrize("size", range(1, 65))
    def test_exhaustive_sizes_match_reference(self, size):
        # Sweeps straight across the FFT crossover (64 lattice slots):
        # contiguous supports of `size` atoms span exactly `size` slots.
        rng = np.random.default_rng(size)
        slots = np.arange(size)
        a = DiscretePMF.from_samples(np.repeat(slots, rng.integers(1, 20, size)))
        b = DiscretePMF.from_samples(np.repeat(slots + 3, rng.integers(1, 20, size)))
        _assert_matches_reference(a.convolve(b), a, b)

    @pytest.mark.parametrize("trial", range(20))
    def test_randomized_sparse_supports_match_reference(self, trial):
        rng = np.random.default_rng(1000 + trial)
        a = _random_grid_pmf(rng, int(rng.integers(2, 40)))
        b = _random_grid_pmf(rng, int(rng.integers(2, 40)))
        _assert_matches_reference(a.convolve(b), a, b)

    def test_fft_side_of_crossover_matches_reference(self):
        rng = np.random.default_rng(7)
        a = _random_grid_pmf(rng, 80, spread=90)   # >= 64 lattice slots
        b = _random_grid_pmf(rng, 75, spread=90)
        _assert_matches_reference(a.convolve(b), a, b)

    def test_direct_side_of_crossover_matches_reference(self):
        rng = np.random.default_rng(8)
        a = _random_grid_pmf(rng, 30, spread=60)   # < 64 lattice slots
        b = _random_grid_pmf(rng, 30, spread=60)
        _assert_matches_reference(a.convolve(b), a, b)

    def test_fractional_grid(self):
        # A non-integral T_i moves a tagged pmf off the lattice points, not
        # off the lattice: it still convolves there, bitwise as before.
        a = DiscretePMF.from_samples([0, 1, 1, 3]).shift(0.5)
        b = DiscretePMF.from_samples([0, 2]).shift(0.25)
        result = a.convolve(b)
        assert result._lattice
        assert result.values.tobytes() == _lattice([(a, b)], True)[0].values.tobytes()
        assert result.values.tolist() == [0.75, 1.75, 2.75, 3.75, 5.75]
        _assert_matches_reference(result, a, b)

    def test_untagged_pmfs_take_pairwise_path(self):
        # Off-grid atoms (irrational spacing) must still convolve exactly.
        a = DiscretePMF([0.0, 0.3, 1.7], [0.2, 0.3, 0.5])
        b = DiscretePMF([0.1, 2.9], [0.6, 0.4])
        _assert_matches_reference(a.convolve(b), a, b)

    def test_grid_tag_propagates_through_convolve(self):
        a = DiscretePMF.from_samples([1, 2, 2, 5])
        b = DiscretePMF.from_samples([0, 3, 3])
        assert a._lattice
        assert a.convolve(b)._lattice
        assert batch_convolve([(a, b)])[0]._lattice

    def test_shift_keeps_tag_scale_drops_it(self):
        pmf = DiscretePMF.from_samples([1, 2, 4])
        assert pmf.shift(2.5)._lattice
        assert not pmf.scale(1.5)._lattice
        assert not pmf.scale(2.0)._lattice
        assert not DiscretePMF(pmf.values, pmf.probs)._lattice
        assert not DiscretePMF.from_counts({1.0: 1, 2.0: 1})._lattice

    def test_the_tag_not_the_atoms_chooses_the_kernel(self):
        # scale(2.0) lands every atom on a lattice point, yet the result is
        # untagged: convolving it is the pairwise kernel, bit for bit.
        rng = np.random.default_rng(5)
        tagged = _random_grid_pmf(rng, 30, spread=70)
        doubled = _random_grid_pmf(rng, 25, spread=70).scale(2.0)
        assert np.array_equal(doubled.values, np.rint(doubled.values))
        for a, b in ((tagged, doubled), (doubled, tagged), (doubled, doubled)):
            result = a.convolve(b)
            pairwise = _pairwise([(a, b)])[0]
            assert not result._lattice
            assert result.values.tobytes() == pairwise.values.tobytes()
            assert result.probs.tobytes() == pairwise.probs.tobytes()
        # In a many-pair call too: the untagged row is its own pairwise call.
        row = batch_convolve([(tagged, doubled), (tagged, tagged)])[0]
        assert row.probs.tobytes() == _pairwise([(tagged, doubled)])[0].probs.tobytes()

    def test_fft_mass_is_renormalized(self):
        rng = np.random.default_rng(11)
        a = _random_grid_pmf(rng, 200, spread=400)
        b = _random_grid_pmf(rng, 200, spread=400)
        result = a.convolve(b)
        assert result.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(result.probs >= 0.0)


class TestBatchConvolve:
    def test_matches_scalar_convolve(self):
        rng = np.random.default_rng(21)
        pairs = [
            (
                _random_grid_pmf(rng, int(rng.integers(2, 50))),
                _random_grid_pmf(rng, int(rng.integers(2, 50))),
            )
            for _ in range(12)
        ]
        results = batch_convolve(pairs)
        assert len(results) == len(pairs)
        for (a, b), result in zip(pairs, results):
            assert result is not None
            _assert_matches_reference(result, a, b)

    def test_singletons_become_shifts(self):
        pmf = DiscretePMF.from_samples([1, 2, 4])
        single = DiscretePMF.degenerate(3.0)
        left, right = batch_convolve([(single, pmf), (pmf, single)])
        _assert_close(left, pmf.shift(3.0))
        _assert_close(right, pmf.shift(3.0))

    def test_untagged_pairs_take_the_pairwise_kernel(self):
        tagged = DiscretePMF.from_samples([1, 2, 4])
        untagged = DiscretePMF([0.0, 0.3], [0.5, 0.5])
        results = batch_convolve([(tagged, untagged), (tagged, tagged)])
        pairwise = _pairwise([(tagged, untagged)])[0]
        assert not results[0]._lattice and results[1]._lattice
        assert results[0].values.tobytes() == pairwise.values.tobytes()
        assert results[0].probs.tobytes() == pairwise.probs.tobytes()
        _assert_matches_reference(results[0], tagged, untagged)

    def test_mixed_row_lengths_pad_correctly(self):
        rng = np.random.default_rng(33)
        pairs = [
            (_random_grid_pmf(rng, 3, spread=8), _random_grid_pmf(rng, 3, spread=8)),
            (_random_grid_pmf(rng, 90, spread=120), _random_grid_pmf(rng, 90, spread=120)),
        ]
        for (a, b), result in zip(pairs, batch_convolve(pairs)):
            _assert_matches_reference(result, a, b)

    def test_empty_input(self):
        assert batch_convolve([]) == []


class TestOneDispatcher:
    """Every pair of a call goes through :func:`batch_convolve`'s one walk."""

    def test_shift_and_pairwise_rows_are_their_own_call_bit_for_bit(self):
        rng = np.random.default_rng(44)
        tagged = [_random_grid_pmf(rng, size, spread=30) for size in (3, 6, 12, 20)]
        pairs = [
            (tagged[0], tagged[1].scale(0.5)),  # pairwise
            (tagged[1], tagged[2]),  # lattice
            (tagged[2].scale(2.0), tagged[3].scale(1.0)),  # pairwise
            (DiscretePMF.degenerate(2.0), tagged[3]),  # shift
            (tagged[3].scale(1.3), tagged[0]),  # pairwise
        ]
        results = batch_convolve(pairs)
        for index, ((a, b), result) in enumerate(zip(pairs, results)):
            alone = a.convolve(b)
            assert result._lattice == alone._lattice
            if index == 1:  # the lattice row: its FFT is the batch's
                assert spec.agrees(result, spec.convolve(_twin(a), _twin(b)))
                continue
            assert result.values.tobytes() == alone.values.tobytes()
            assert result.probs.tobytes() == alone.probs.tobytes()

    def test_equal_keys_of_two_rows_stay_in_their_rows(self):
        pmf = DiscretePMF.from_samples([0.0, 1.0])
        once, twice = pmf.scale(1.0), pmf.scale(2.0).shift(1.0)
        # Row 1 ends on key 2.0, where row 2 starts.
        first, second = batch_convolve([(pmf, once), (twice, once.shift(1.0))])
        assert first.items() == [(0.0, 0.25), (1.0, 0.5), (2.0, 0.25)]
        assert second.items() == [(2.0, 0.25), (3.0, 0.25), (4.0, 0.25), (5.0, 0.25)]


def _twin(pmf):
    return dict(zip(pmf.values.tolist(), pmf.probs.tolist()))


def _spanning(rng, slots):
    """A tagged pmf whose atoms span exactly ``slots`` lattice slots."""
    inner = rng.integers(1, slots - 1, size=6)
    return DiscretePMF.from_samples([0.0, float(slots - 1), *inner.tolist()])


def _dense(pmf):
    dense = np.zeros(int(pmf._lattice_indices()[-1]) + 1)
    dense[pmf._lattice_indices()] = pmf.probs
    return dense


def _lattice_result(a, b, full, floor):
    """The tagged pmf a lattice kernel makes of the dense product ``full``."""
    keep = np.nonzero(full > floor)[0]
    values = np.round(a.min() + b.min() + keep * 1.0, 9)
    probs = full[keep]
    return values, probs / probs.sum()


class TestTheLatticeKernel:
    """Which dense product a lattice pair gets, by the call it is in."""

    def _fft(self, a, b, size):
        product = np.fft.rfft(_dense(a), size) * np.fft.rfft(_dense(b), size)
        return np.fft.irfft(product, size)[: _dense(a).size + _dense(b).size - 1]

    @pytest.mark.parametrize("slots", [_FFT_CROSSOVER - 1, _FFT_CROSSOVER])
    def test_a_one_pair_call_is_sized_to_its_pair(self, slots):
        # Below the crossover np.convolve, at it an FFT sized to the pair
        # whose noise floor is its own output length.
        rng = np.random.default_rng(slots)
        a, b = _spanning(rng, slots), _spanning(rng, slots + 10)
        out_len = 2 * slots + 9
        if slots < _FFT_CROSSOVER:
            full, floor = np.convolve(_dense(a), _dense(b)), 0.0
        else:
            size = 1 << (out_len - 1).bit_length()
            full, floor = self._fft(a, b, size), out_len * np.finfo(float).eps
        values, probs = _lattice_result(a, b, full, floor)
        for result in (a.convolve(b), batch_convolve([(a, b)])[0]):
            assert result._lattice
            assert result.values.tobytes() == values.tobytes()
            assert result.probs.tobytes() == probs.tobytes()

    def test_a_lone_lattice_pair_of_a_many_pair_call_takes_the_batch_fft(self):
        # Narrow operands, yet not alone in the call: the padded FFT, its
        # floor the transform size, not np.convolve.
        rng = np.random.default_rng(3)
        a, b = _spanning(rng, 12), _spanning(rng, 9)
        shift = (a, DiscretePMF.degenerate(1.0))
        result = batch_convolve([shift, (a, b)])[1]
        size = 32
        values, probs = _lattice_result(
            a, b, self._fft(a, b, size), size * np.finfo(float).eps
        )
        assert result._lattice
        assert result.values.tobytes() == values.tobytes()
        assert result.probs.tobytes() == probs.tobytes()
        assert spec.agrees(result, spec.convolve(_twin(a), _twin(b)))

    def test_rows_of_unequal_width_share_one_transform(self):
        rng = np.random.default_rng(4)
        narrow = (_spanning(rng, 5), _spanning(rng, 7))
        wide = (_spanning(rng, 70), _spanning(rng, 40))
        size = 128  # 70 + 40 - 1 = 109 outputs
        results = batch_convolve([narrow, wide])
        for (a, b), result in zip((narrow, wide), results):
            values, probs = _lattice_result(
                a, b, self._fft(a, b, size), size * np.finfo(float).eps
            )
            assert result.values.tobytes() == values.tobytes()
            assert result.probs.tobytes() == probs.tobytes()
