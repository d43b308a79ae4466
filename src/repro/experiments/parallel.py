"""Sharded parallel experiment engine with deterministic merging.

The experiment matrix repeats stochastic scenario runs over parameter
points and seeds; every run is independent, so the sweep is
embarrassingly parallel — *if* seeding and merging are disciplined.
This module supplies that discipline on top of :mod:`repro.rng`:

* **Task seeding** — each task is one ``(parameter point, repetition)``
  cell.  Its scenario seed is either taken from an explicit ``seeds``
  tuple (the historic experiment tables) or derived as
  ``derive_entity_seed(base_seed, stream_name, point_index, repetition)``,
  a pure function of the task's coordinates.  No task's randomness
  depends on which worker executes it.
* **Disjoint worker shards** — tasks are assigned round-robin to
  ``workers`` processes (``tasks[w::workers]``); shards partition the
  task list, nothing is run twice and no draw is shared.
* **Order-independent reduction** — results are sorted by
  ``(point_index, repetition)`` before any aggregation, so the merged
  metrics are **bit-identical for 1, 2, or N workers** (the invariance
  contract of docs/REPRODUCIBILITY.md, enforced in CI by the digest
  smoke job and ``tests/experiments/test_parallel_runner.py``).

``python -m repro.experiments smoke --workers 2``
(:mod:`repro.experiments.smoke`) runs a built-in smoke sweep serially
and with the requested worker count and fails if the two digests differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..rng import derive_entity_seed

__all__ = [
    "TaskSpec",
    "TaskResult",
    "SweepResult",
    "run_sweep",
    "sweep_digest",
    "canonical",
]

#: A sweep worker: ``fn(params, seed, repetition) -> value``.  Must be a
#: module-level callable (pickled into worker processes), and
#: deterministic given its arguments — the whole invariance contract
#: rests on that.
SweepFn = Callable[[Any, int, int], Any]


@dataclass(frozen=True)
class TaskSpec:
    """One executable cell of a sweep: a parameter point × repetition."""

    point_index: int
    repetition: int
    params: Any
    seed: int


@dataclass(frozen=True)
class TaskResult:
    """The completed form of a :class:`TaskSpec` (seed kept for replay)."""

    point_index: int
    repetition: int
    seed: int
    value: Any


@dataclass(frozen=True)
class SweepResult:
    """Merged outcome of a sweep, sorted by ``(point_index, repetition)``.

    The task ordering — and therefore every aggregate computed from it,
    including the :meth:`digest` — is independent of worker count and
    completion order.
    """

    points: Tuple[Any, ...]
    results: Tuple[TaskResult, ...]
    workers: int
    elapsed_s: float

    def by_point(self) -> List[List[Any]]:
        """Task values grouped per parameter point, repetition-ordered."""
        grouped: List[List[Any]] = [[] for _ in self.points]
        for result in self.results:
            grouped[result.point_index].append(result.value)
        return grouped

    def digest(self) -> str:
        """Canonical SHA-256 over the merged results (see :func:`sweep_digest`)."""
        return sweep_digest(self.results)


def canonical(obj: Any) -> Any:
    """A JSON-encodable canonical form with bit-exact floats.

    Floats are rendered with :meth:`float.hex` (no rounding ambiguity),
    dataclasses become tagged field dicts, mappings get sorted keys.
    Two objects share a canonical form iff their observable metric
    content is bit-identical — the equality the 1-vs-N-workers contract
    is stated in.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(obj[k]) for k in sorted(obj, key=str)}
    return repr(obj)


def sweep_digest(results: Sequence[TaskResult]) -> str:
    """SHA-256 hex digest of canonically encoded, coordinate-sorted results."""
    ordered = sorted(results, key=lambda r: (r.point_index, r.repetition))
    payload = json.dumps(
        canonical(list(ordered)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _build_tasks(
    points: Sequence[Any],
    repetitions: Optional[int],
    seeds: Optional[Sequence[int]],
    base_seed: int,
    stream_name: str,
) -> List[TaskSpec]:
    """Expand the sweep grid into per-cell tasks with derived seeds."""
    if (repetitions is None) == (seeds is None):
        raise ValueError("pass exactly one of repetitions or seeds")
    if seeds is not None:
        reps = list(enumerate(seeds))
    else:
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        reps = [
            (
                r,
                derive_entity_seed(
                    base_seed, stream_name, entity_id=None, repetition=r
                ),
            )
            for r in range(repetitions)
        ]
    tasks = []
    for point_index, params in enumerate(points):
        for repetition, seed in reps:
            if seeds is None:
                seed = derive_entity_seed(
                    base_seed, stream_name, point_index, repetition
                )
            tasks.append(
                TaskSpec(
                    point_index=point_index,
                    repetition=repetition,
                    params=params,
                    seed=int(seed),
                )
            )
    return tasks


def _run_shard(payload: Tuple[SweepFn, List[TaskSpec]]) -> List[TaskResult]:
    """Execute one worker shard sequentially (runs inside a pool process)."""
    fn, shard = payload
    return [
        TaskResult(
            point_index=task.point_index,
            repetition=task.repetition,
            seed=task.seed,
            value=fn(task.params, task.seed, task.repetition),
        )
        for task in shard
    ]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (fast, Linux default); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_sweep(
    fn: SweepFn,
    points: Sequence[Any],
    repetitions: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    base_seed: int = 0,
    workers: int = 1,
    stream_name: str = "sweep",
) -> SweepResult:
    """Run ``fn`` over every ``(point, repetition)`` cell of a sweep.

    Parameters
    ----------
    fn:
        Module-level callable ``fn(params, seed, repetition)``; must be
        picklable and deterministic given its arguments.
    points:
        Parameter points (any picklable values; passed through verbatim).
    repetitions / seeds:
        Exactly one must be given.  ``seeds`` pins explicit per-repetition
        scenario seeds (shared by every point — the historic experiment
        tables); ``repetitions`` derives per-cell seeds from
        ``(base_seed, stream_name, point_index, repetition)``.
    workers:
        Process count.  ``1`` runs inline (no pool); ``0``/negative means
        ``os.cpu_count()``.  Results are bit-identical for any value.

    Returns
    -------
    SweepResult
        Results sorted by ``(point_index, repetition)`` with provenance
        (per-task seeds, worker count, wall-clock).
    """
    tasks = _build_tasks(points, repetitions, seeds, base_seed, stream_name)
    if workers <= 0:
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks)) or 1
    started = time.perf_counter()
    if workers == 1:
        results = _run_shard((fn, tasks))
    else:
        shards = [tasks[w::workers] for w in range(workers)]
        ctx = _pool_context()
        with ctx.Pool(processes=workers) as pool:
            shard_results = pool.map(
                _run_shard, [(fn, shard) for shard in shards]
            )
        results = [result for shard in shard_results for result in shard]
    results.sort(key=lambda r: (r.point_index, r.repetition))
    return SweepResult(
        points=tuple(points),
        results=tuple(results),
        workers=workers,
        elapsed_s=time.perf_counter() - started,
    )
