"""Benchmark-suite configuration.

Each benchmark regenerates one figure/table of the paper (or one ablation
from DESIGN.md): it runs the corresponding experiment harness once under
``pytest-benchmark`` timing, prints the paper-style table (visible with
``-s``; always written to the terminal summary via ``extra_info``), and
asserts the qualitative shape so a regression fails loudly.
"""


def attach_rows(benchmark, headers, rows):
    """Store result rows on the benchmark record (shows up in JSON)."""
    benchmark.extra_info["headers"] = list(headers)
    benchmark.extra_info["rows"] = [
        [round(c, 4) if isinstance(c, float) else c for c in row]
        for row in rows
    ]


def run_sweep_once(benchmark, experiment, grid=None, seeds=None):
    """Time one registry run of ``experiment``; returns its rows."""
    from repro.experiments.registry import run

    return benchmark.pedantic(
        lambda: run(experiment, grid=grid, seeds=seeds).rows,
        rounds=1,
        iterations=1,
    )
