"""The experiment registry: every sweep is data, one runner executes it.

The paper's evaluation is one protocol — a fixed deployment, a
parameter grid, the mean over repeated runs — and every ablation is
that protocol over another grid.  An :class:`Experiment` therefore
declares only what varies: its parameter ``grid``, its ``seeds``, a
module-level ``point`` function performing *one* run, and the
``tables`` to print.  :func:`run` expands the grid through
:func:`repro.experiments.parallel.run_sweep`, so every experiment
inherits the sharded engine's contract: results (and the
:func:`~repro.experiments.parallel.sweep_digest` over them) are
bit-identical for any worker count.

The entries that are not seeded sweeps — the host-timing benchmarks,
the chaos campaign with its ``--replay`` CLI, the engine's digest smoke
— register a :class:`Command` instead.  ``python -m repro.experiments`` is the one
command line over both (see :mod:`repro.experiments.__main__`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .harness import average, print_table
from .parallel import SweepFn, run_sweep

__all__ = [
    "DIGESTS_FILE",
    "Table",
    "Experiment",
    "Command",
    "Result",
    "cartesian",
    "flag_value",
    "mean_rows",
    "run",
    "print_tables",
]

#: Pinned full-run digests, one per deterministic registry entry.
DIGESTS_FILE = "experiments_digests.json"

#: One output row: grid parameters ∪ reduced metrics ∪ ``runs``.
Row = Dict[str, Any]
#: One grid point's raw material: its parameters and the point
#: function's per-run metric mappings, in repetition order.
Cell = Tuple[Mapping[str, Any], Sequence[Mapping[str, Any]]]


def cartesian(**axes: Iterable[Any]) -> Tuple[Dict[str, Any], ...]:
    """Every combination of the named axes, the first axis outermost."""
    return tuple(
        dict(zip(axes, combination))
        for combination in itertools.product(*axes.values())
    )


def mean_rows(cells: Sequence[Cell]) -> List[Row]:
    """One row per grid point: every metric averaged over the runs.

    Values are summed in repetition order (``sum(values) / len(values)``),
    which is what keeps the tables bit-identical for any worker count.
    Weighted columns are the point function's business: it returns the
    already-weighted per-run value.
    """
    rows = []
    for params, runs in cells:
        row: Row = dict(params)
        for metric in runs[0]:
            row[metric] = average([run[metric] for run in runs])
        row["runs"] = len(runs)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class Table:
    """One printed table: a title and ``(header, row key)`` columns.

    ``title`` (and ``note``, a line printed under the table) are format
    strings over the table's first row.  ``split_by`` names a row key:
    the rows are then printed as one table per distinct value, in order
    of first appearance.
    """

    title: str
    columns: Tuple[Tuple[str, str], ...]
    split_by: Optional[str] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    """A seeded sweep, declared as data.

    ``point(params, seed, repetition)`` performs one run at one grid
    point and returns ``{metric: value}``; it must be a module-level
    function (it is pickled into worker processes) and deterministic
    given its arguments.  ``rows`` reduces the per-point runs to output
    rows — the mean by default; the few experiments whose table is not a
    per-point mean (a pooled calibration table, a single-run timeline)
    supply their own.  ``quick_grid``/``quick_seeds`` are the reduced
    sweep of ``--quick`` smoke runs.  ``check``, when given, returns one
    line per full-grid row that breaks a law the rows must obey (A16's
    capacity bound); ``--check-digests`` fails on any.
    """

    key: str
    title: str
    point: SweepFn
    grid: Tuple[Mapping[str, Any], ...]
    seeds: Tuple[int, ...]
    quick_grid: Tuple[Mapping[str, Any], ...]
    quick_seeds: Tuple[int, ...]
    tables: Tuple[Table, ...]
    rows: Callable[[Sequence[Cell]], List[Row]] = mean_rows
    check: Optional[Callable[[Sequence[Row]], List[str]]] = None


@dataclass(frozen=True)
class Command:
    """A registered entry that is not a seeded sweep.

    ``main(argv)`` receives the shared flags the command line was given
    (``--quick``, ``--workers N``, ``--json FILE``, ``--check-digests``)
    plus, when it is the only entry selected, any flags of its own.  A
    command with a reproducible digest (A17) compares it with its pin in
    :data:`DIGESTS_FILE` under ``--check-digests``; the others ignore it.
    ``--json`` is never ignored: a command writes ``FILE`` or, having
    nothing to write (the digest smoke), returns a usage error.
    """

    key: str
    title: str
    main: Callable[[Sequence[str]], int]


def flag_value(argv: Sequence[str], flag: str, default: Any = None) -> Any:
    """The value following ``flag`` in a :class:`Command`'s ``argv``."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


@dataclass(frozen=True)
class Result:
    """The outcome of one :func:`run`: rows plus provenance."""

    rows: List[Row]
    digest: str
    workers: int


def run(
    experiment: Experiment,
    grid: Optional[Sequence[Mapping[str, Any]]] = None,
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> Result:
    """Run ``experiment`` (its full sweep unless ``grid``/``seeds`` say otherwise)."""
    points = tuple(experiment.grid if grid is None else grid)
    sweep = run_sweep(
        experiment.point,
        points,
        seeds=tuple(experiment.seeds if seeds is None else seeds),
        workers=workers,
    )
    rows = experiment.rows(list(zip(points, sweep.by_point())))
    return Result(rows=rows, digest=sweep.digest(), workers=sweep.workers)


def print_tables(experiment: Experiment, rows: Sequence[Row]) -> None:
    """Print every declared table of ``experiment`` over ``rows``."""
    for table in experiment.tables:
        groups: Dict[Any, List[Row]] = {}
        for row in rows:
            group_key = row[table.split_by] if table.split_by else None
            groups.setdefault(group_key, []).append(row)
        for group in groups.values():
            print_table(
                table.title.format(**group[0]),
                [header for header, _key in table.columns],
                [[row[key] for _header, key in table.columns] for row in group],
            )
            if table.note:
                print(table.note.format(**group[0]))
