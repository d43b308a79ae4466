"""Regression: a one-atom pmf takes its tolerances from its grid tag.

A singleton has no gap between atoms, so ``resolution()`` is ``inf`` —
and rounding decimals and dust tolerance derived from *that* fall back to
the millisecond-era 9 decimals / 1e-9, whatever grid the pmf was counted
on.  A singleton is exactly what an idle queue-delay window is, and what
every window is at ``l = 1``: on grids finer than 1e-9 its atoms were
flattened to zero and ``F`` read 1 far below the only atom.  Grids of
1e-6 and coarser are unaffected (bit for bit), untagged singletons keep
the historical behaviour.
"""

import pytest

from repro.core.distribution import DiscretePMF, SampleCounts
from repro.core.estimator import ResponseTimeEstimator
from repro.core.repository import InformationRepository

FINE = 1e-10


def fine(*samples):
    return SampleCounts(FINE, samples).pmf()


class TestTaggedSingletonOnAFineGrid:
    def test_shift_keeps_the_atom(self):
        assert fine(3e-10).shift(2e-10).values.tolist() == pytest.approx(
            [5e-10], rel=1e-6
        )
        # ... as the two-atom pmf beside it always did.
        assert fine(3e-10, 4e-10).shift(2e-10).values.tolist() == pytest.approx(
            [5e-10, 6e-10], rel=1e-6
        )

    def test_singleton_plus_singleton(self):
        total = fine(3e-10).convolve(fine(4e-10))
        assert total.values.tolist() == pytest.approx([7e-10], rel=1e-6)
        assert total.bin_width == FINE

    def test_scale_keeps_the_atom(self):
        assert fine(3e-10).scale(2.0).values.tolist() == pytest.approx(
            [6e-10], rel=1e-6
        )

    def test_tolerance_matches_the_multi_atom_pmf_of_the_grid(self):
        assert fine(3e-10).dust_tolerance() == fine(3e-10, 4e-10).dust_tolerance()
        assert fine(3e-10).dust_tolerance() < FINE / 2

    def test_cdf_is_zero_below_the_only_atom(self):
        pmf = fine(9e-10)
        assert pmf.cdf(5e-10) == 0.0
        assert pmf.cdf(9e-10) == 1.0

    def test_single_sample_windows_estimate_on_the_grid(self):
        repo = InformationRepository(window_size=1)
        repo.record_performance("r1", 3e-10, 4e-10, 0, now_ms=0.0)
        repo.record_gateway_delay("r1", 2e-10, now_ms=0.0)
        estimator = ResponseTimeEstimator(repo, bin_width_ms=FINE)
        assert estimator.response_time_pmf("r1").values.tolist() == pytest.approx(
            [9e-10], rel=1e-6
        )
        assert estimator.probability_by("r1", 5e-10) == 0.0
        assert estimator.batch_probability_by(["r1"], 5e-10) == [0.0]
        assert estimator.batch_probability_by(["r1"], 9e-10) == [1.0]


class TestEverythingElseIsUnchanged:
    @pytest.mark.parametrize("width", [1.0, 0.25, 1e-3, 1e-6])
    def test_coarse_grids_keep_nine_decimals_and_1e9(self, width):
        pmf = SampleCounts(width, [3 * width]).pmf()
        assert pmf.dust_tolerance() == 1e-9
        # 0.1234567894 rounds at the ninth decimal, as it always has.
        assert pmf.shift(0.1234567894).values.tolist() == [
            round(3 * width + 0.1234567894, 9)
        ]

    def test_untagged_singletons_keep_nine_decimals(self):
        constant = DiscretePMF.degenerate(0.5)
        assert constant.dust_tolerance() == 1e-9
        assert constant.shift(0.1234567894).values.tolist() == [0.623456789]

    def test_resolution_of_a_singleton_is_still_inf(self):
        assert fine(3e-10).resolution() == float("inf")
