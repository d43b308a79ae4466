"""Benchmark — Ablation A3: sliding-window size sensitivity (§5.2)."""

from repro.experiments import window_sensitivity

from benchmarks.conftest import attach_rows, run_sweep_once


def test_window_sensitivity(benchmark):
    results = run_sweep_once(
        benchmark,
        window_sensitivity.EXPERIMENT,
        grid=window_sensitivity.grid(window_sizes=(2, 5, 20)),
        seeds=(0, 1),
    )
    rows = [
        tuple(
            r[k]
            for k in ("workload", "window_size", "failure_probability", "mean_redundancy")
        )
        for r in results
    ]
    attach_rows(
        benchmark,
        ["workload", "window", "failure_prob", "redundancy"],
        rows,
    )
    print()
    print("Sliding-window sensitivity (deadline 140 ms, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<11} l={row[1]:<3} failures={row[2]:.3f}  "
              f"redundancy={row[3]:.2f}")

    stationary = {
        r["window_size"]: r for r in results if r["workload"] == "stationary"
    }
    # On the paper's stationary workload every window size holds the
    # budget — the paper's l=5 choice is not load-bearing there.
    assert all(r["failure_probability"] <= 0.1 for r in stationary.values())
