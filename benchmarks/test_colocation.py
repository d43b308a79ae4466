"""Benchmark — Ablation A12: routing around co-location interference."""

from repro.experiments import colocation

from benchmarks.conftest import attach_rows, run_sweep_once


def test_colocation_interference(benchmark):
    results = run_sweep_once(
        benchmark,
        colocation.EXPERIMENT,
        grid=colocation.grid(num_requests=30),
        seeds=(0, 1),
    )
    rows = [
        tuple(
            r[k]
            for k in ("policy", "failure_probability", "noisy_host_share", "mean_redundancy")
        )
        for r in results
    ]
    attach_rows(
        benchmark,
        ["policy", "failure_prob", "noisy_share", "redundancy"],
        rows,
    )
    print()
    print("Co-location interference (deadline 160 ms, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<22} failures={row[1]:.3f}  "
              f"noisy replies={row[2]:.3f}  redundancy={row[3]:.2f}")

    by_name = {r["policy"]: r for r in results}
    dynamic = by_name["dynamic (paper)"]
    blind = by_name["random-2 (load-blind)"]
    # The measurement loop steers the dynamic policy to the quiet hosts.
    assert dynamic["noisy_host_share"] < blind["noisy_host_share"]
    assert dynamic["failure_probability"] <= 0.1
    assert dynamic["failure_probability"] <= blind["failure_probability"]
