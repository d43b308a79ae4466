"""The parallel sweep engine's 1-vs-N invariance contract (ISSUE 6).

The headline property: ``run_sweep`` produces **byte-identical** merged
results for 1, 2, and 4 workers — same task seeds, same values, same
canonical digest.  Plus the supporting pieces: deterministic task
seeding and the canonical encoding the digest is computed over.
"""

import math

import pytest

from repro.experiments.parallel import (
    TaskResult,
    _build_tasks,
    canonical,
    run_sweep,
    sweep_digest,
)
from repro.experiments.smoke import SMOKE_POINTS, _smoke_sweep
from repro.rng import derive_entity_seed


def _echo_task(params, seed, repetition):
    """Module-level (picklable) task: a pure function of its arguments."""
    return {
        "params": params,
        "seed": seed,
        "repetition": repetition,
        "value": math.sin(seed % 1000) * (repetition + 1),
    }


class TestTaskSeeding:
    def test_requires_exactly_one_of_repetitions_or_seeds(self):
        with pytest.raises(ValueError):
            _build_tasks(["p"], None, None, 0, "sweep")
        with pytest.raises(ValueError):
            _build_tasks(["p"], 2, (0, 1), 0, "sweep")

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            _build_tasks(["p"], 0, None, 0, "sweep")

    def test_explicit_seeds_shared_across_points(self):
        tasks = _build_tasks(["a", "b"], None, (7, 13), 0, "sweep")
        assert [(t.point_index, t.repetition, t.seed) for t in tasks] == [
            (0, 0, 7),
            (0, 1, 13),
            (1, 0, 7),
            (1, 1, 13),
        ]

    def test_derived_seeds_are_per_cell_and_keyed(self):
        tasks = _build_tasks(["a", "b"], 2, None, 99, "sweep")
        assert len({t.seed for t in tasks}) == 4
        for task in tasks:
            assert task.seed == derive_entity_seed(
                99, "sweep", task.point_index, task.repetition
            )


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_digest_identical_to_serial(self, workers):
        serial = run_sweep(_echo_task, ["a", "b", "c"], repetitions=3)
        parallel = run_sweep(
            _echo_task, ["a", "b", "c"], repetitions=3, workers=workers
        )
        assert parallel.results == serial.results
        assert parallel.digest() == serial.digest()

    def test_workers_capped_by_task_count(self):
        sweep = run_sweep(_echo_task, ["only"], repetitions=1, workers=8)
        assert sweep.workers == 1

    def test_by_point_groups_in_repetition_order(self):
        sweep = run_sweep(_echo_task, ["a", "b"], repetitions=2, workers=2)
        grouped = sweep.by_point()
        assert len(grouped) == 2
        for point_values in grouped:
            assert [v["repetition"] for v in point_values] == [0, 1]

    def test_smoke_sweep_parallel_matches_serial(self):
        # The CI digest job's exact comparison, in-process: the built-in
        # two-client smoke sweep through real scenario runs.
        assert _smoke_sweep(workers=1).digest() == _smoke_sweep(2).digest()

    def test_smoke_points_are_full_scenario_runs(self):
        sweep = _smoke_sweep(workers=1)
        assert len(sweep.points) == len(SMOKE_POINTS)
        assert all(r.value is not None for r in sweep.results)


class TestCanonicalEncoding:
    def test_floats_encode_bit_exact(self):
        assert canonical(0.1) == (0.1).hex()
        assert canonical(0.1) != canonical(0.1 + 1e-17 * 2)

    def test_bools_are_not_ints(self):
        assert canonical(True) is True
        assert canonical(1) == 1

    def test_dataclasses_tagged_and_dicts_sorted(self):
        result = TaskResult(point_index=0, repetition=1, seed=3, value=None)
        encoded = canonical(result)
        assert encoded["__dataclass__"] == "TaskResult"
        assert canonical({"b": 1, "a": 2}) == {"a": 2, "b": 1}

    def test_digest_is_order_insensitive(self):
        results = [
            TaskResult(point_index=p, repetition=r, seed=0, value=p * 10 + r)
            for p in range(2)
            for r in range(2)
        ]
        assert sweep_digest(results) == sweep_digest(list(reversed(results)))
