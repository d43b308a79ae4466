"""Unit tests for load models and service profiles."""

import numpy as np
import pytest

from repro.replica.load import (
    ConstantLoad,
    ServiceProfile,
    StepLoad,
)
from repro.sim.random import Constant, Normal


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestConstantLoad:
    def test_fixed_factor(self):
        assert ConstantLoad(2.0).factor(0.0) == 2.0
        assert ConstantLoad(2.0).factor(1e9) == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLoad(-1.0)


class TestStepLoad:
    def test_initial_factor_before_first_step(self):
        load = StepLoad([(100.0, 3.0)], initial=1.0)
        assert load.factor(50.0) == 1.0

    def test_step_applies_from_start_time(self):
        load = StepLoad([(100.0, 3.0)], initial=1.0)
        assert load.factor(100.0) == 3.0
        assert load.factor(500.0) == 3.0

    def test_multiple_steps_pick_latest(self):
        load = StepLoad([(100.0, 3.0), (200.0, 0.5)])
        assert load.factor(150.0) == 3.0
        assert load.factor(250.0) == 0.5

    def test_unsorted_steps_are_sorted(self):
        load = StepLoad([(200.0, 0.5), (100.0, 3.0)])
        assert load.factor(150.0) == 3.0

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            StepLoad([(0.0, -1.0)])


class TestServiceProfile:
    def test_default_distribution_used(self, rng):
        profile = ServiceProfile(default=Constant(10.0))
        assert profile.sample_duration("anything", 0.0, rng) == 10.0

    def test_per_method_override(self, rng):
        profile = ServiceProfile(
            default=Constant(10.0), per_method={"heavy": Constant(100.0)}
        )
        assert profile.sample_duration("light", 0.0, rng) == 10.0
        assert profile.sample_duration("heavy", 0.0, rng) == 100.0

    def test_load_factor_scales_duration(self, rng):
        profile = ServiceProfile(
            default=Constant(10.0), load=StepLoad([(100.0, 3.0)])
        )
        assert profile.sample_duration("m", 0.0, rng) == 10.0
        assert profile.sample_duration("m", 200.0, rng) == 30.0

    def test_duration_never_negative(self, rng):
        profile = ServiceProfile(default=Normal(0.0, 10.0))
        for _ in range(100):
            assert profile.sample_duration("m", 0.0, rng) >= 0.0
