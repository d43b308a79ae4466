"""Benchmark — Figure 4: average number of replicas selected.

Runs the paper's two-client sweep and prints the Fig. 4 series.  The
shape assertions encode the paper's two observations: redundancy falls
as the deadline grows, and as the requested probability falls.
"""

from repro.experiments import fig45_selection

from benchmarks.conftest import attach_rows, run_sweep_once

DEADLINES = (100.0, 140.0, 200.0)
PROBABILITIES = (0.9, 0.5, 0.0)


def test_fig4_replicas_selected(benchmark):
    points = run_sweep_once(
        benchmark,
        fig45_selection.EXPERIMENT,
        grid=fig45_selection.grid(
            deadlines_ms=DEADLINES, probabilities=PROBABILITIES
        ),
        seeds=(0, 1),
    )
    rows = [
        (p["min_probability"], p["deadline_ms"], p["mean_redundancy"])
        for p in points
    ]
    attach_rows(benchmark, ["Pc", "deadline_ms", "avg_replicas"], rows)
    print()
    print("Figure 4: average number of replicas selected (client 2)")
    for row in rows:
        print(f"  Pc={row[0]:<4}  deadline={row[1]:>5.0f} ms  "
              f"avg replicas={row[2]:.2f}")

    cell = {(p["min_probability"], p["deadline_ms"]): p for p in points}
    # Observation 1: fewer replicas as the deadline grows.
    for pc in PROBABILITIES:
        assert (
            cell[(pc, 100.0)]["mean_redundancy"]
            >= cell[(pc, 200.0)]["mean_redundancy"]
        )
    # Observation 2: fewer replicas as the requested probability falls.
    for deadline in DEADLINES:
        assert (
            cell[(0.9, deadline)]["mean_redundancy"]
            >= cell[(0.0, deadline)]["mean_redundancy"]
        )
    # The Pc=0 series sits at Algorithm 1's floor of 2 (plus bootstrap).
    assert cell[(0.0, 200.0)]["mean_redundancy"] < 2.3
