"""Unit tests for random streams and distributions."""

import math

import numpy as np
import pytest

from repro.rng import RNGManager
from repro.sim.random import (
    Constant,
    Exponential,
    MarkovModulated,
    Normal,
    Pareto,
    Uniform,
)


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RNGManager(base_seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_are_reproducible_across_instances(self):
        a = RNGManager(base_seed=7).stream("x").random(5)
        b = RNGManager(base_seed=7).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_different_names_give_different_sequences(self):
        streams = RNGManager(base_seed=7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_give_different_sequences(self):
        a = RNGManager(base_seed=1).stream("x").random(5)
        b = RNGManager(base_seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestDistributions:
    def test_constant(self, rng):
        dist = Constant(5.0)
        assert dist.sample(rng) == 5.0
        assert dist.mean() == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            Constant(-1.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Constant(math.nan),
            lambda: Uniform(math.nan, 1.0),
            lambda: Uniform(0.0, math.nan),
            lambda: Exponential(math.nan),
            lambda: Normal(math.nan, 1.0),
            lambda: Normal(1.0, math.nan),
            lambda: Pareto(math.nan, 2.0),
            lambda: Pareto(1.0, math.nan),
        ],
        ids=["constant", "uniform-low", "uniform-high", "exponential", "normal-mu",
             "normal-sigma", "pareto-xm", "pareto-alpha"],
    )
    def test_nan_parameters_are_refused(self, build):
        # A NaN passes every check written ``x < 0``; each is written so
        # that it does not.
        with pytest.raises(ValueError):
            build()

    def test_uniform_bounds(self, rng):
        dist = Uniform(2.0, 4.0)
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(2.0 <= s < 4.0 for s in samples)
        assert dist.mean() == 3.0

    def test_exponential_mean(self, rng):
        dist = Exponential(10.0)
        samples = np.array([dist.sample(rng) for _ in range(20_000)])
        assert samples.mean() == pytest.approx(10.0, rel=0.05)

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_normal_is_clipped_at_zero(self, rng):
        dist = Normal(1.0, 10.0)
        samples = np.array([dist.sample(rng) for _ in range(1000)])
        assert (samples >= 0).all()

    def test_normal_clipped_mean_formula(self, rng):
        dist = Normal(100.0, 50.0)
        samples = np.array([dist.sample(rng) for _ in range(50_000)])
        assert samples.mean() == pytest.approx(dist.mean(), rel=0.02)

    def test_pareto_mean(self, rng):
        dist = Pareto(xm=10.0, alpha=3.0)
        assert dist.mean() == pytest.approx(15.0)
        samples = np.array([dist.sample(rng) for _ in range(20_000)])
        assert (samples >= 10.0).all()
        assert samples.mean() == pytest.approx(15.0, rel=0.1)

    def test_pareto_infinite_mean_for_small_alpha(self):
        assert math.isinf(Pareto(xm=1.0, alpha=0.9).mean())


class TestMarkovModulated:
    def test_stationary_mean(self, rng):
        dist = MarkovModulated(
            Constant(1.0), Constant(10.0), p_enter_burst=0.1, p_exit_burst=0.3
        )
        # pi_burst = 0.1 / 0.4 = 0.25 -> mean = 0.75*1 + 0.25*10 = 3.25
        assert dist.mean() == pytest.approx(3.25)
        samples = [dist.sample(rng) for _ in range(50_000)]
        assert sum(samples) / len(samples) == pytest.approx(3.25, rel=0.1)

    def test_burst_state_produces_burst_samples(self, rng):
        dist = MarkovModulated(
            Constant(1.0), Constant(10.0), p_enter_burst=1.0, p_exit_burst=0.0
        )
        assert dist.sample(rng) == 10.0  # enters burst on the first draw
        assert dist.sample(rng) == 10.0

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            MarkovModulated(Constant(1), Constant(2), p_enter_burst=1.5)
