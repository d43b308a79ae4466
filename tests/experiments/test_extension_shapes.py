"""Shape tests for the §8-extension ablations (A6–A8)."""

import pytest

from repro.experiments import bursty_network, method_classification, probing
from repro.experiments.registry import run


def _by_variant(module, seeds, num_requests):
    result = run(
        module.EXPERIMENT, grid=module.grid(num_requests=num_requests), seeds=seeds
    )
    return {row["variant"]: row for row in result.rows}


class TestProbingShape:
    @pytest.fixture(scope="class")
    def results(self):
        return _by_variant(probing, seeds=(0,), num_requests=20)

    def test_probes_fire_only_when_enabled(self, results):
        assert results["without probes"]["probes_sent"] == 0
        assert results["with active probes"]["probes_sent"] > 0

    def test_probing_reduces_failures_on_stale_workload(self, results):
        assert (
            results["with active probes"]["failure_probability"]
            < results["without probes"]["failure_probability"]
        )


class TestClassificationShape:
    @pytest.fixture(scope="class")
    def results(self):
        return _by_variant(method_classification, seeds=(0,), num_requests=30)

    def test_classified_routes_with_less_redundancy(self, results):
        pooled = results["pooled (paper base)"]
        classified = results["classified (per-method)"]
        assert classified["heavy_redundancy"] < pooled["heavy_redundancy"]
        assert classified["cheap_redundancy"] < pooled["cheap_redundancy"]

    def test_classified_meets_budget(self, results):
        assert results["classified (per-method)"]["failure_probability"] <= 0.1


class TestBurstyShape:
    def test_window_not_worse_than_last_value(self):
        results = _by_variant(bursty_network, seeds=(0, 1), num_requests=25)
        base = results["last value (paper base)"]
        windowed = results["window of 5"]
        assert (
            windowed["failure_probability"] <= base["failure_probability"] + 0.05
        )
