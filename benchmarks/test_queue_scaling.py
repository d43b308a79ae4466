"""Benchmark — Ablation A11: queue-depth-scaled estimation under load."""

from repro.experiments import queue_scaling

from benchmarks.conftest import attach_rows, run_sweep_once


def test_queue_scaling(benchmark):
    points = run_sweep_once(
        benchmark,
        queue_scaling.EXPERIMENT,
        grid=queue_scaling.grid(client_counts=(2, 6), num_requests=25),
        seeds=(0, 1),
    )
    rows = [
        tuple(
            p[k]
            for k in ("estimator", "num_clients", "failure_probability", "mean_redundancy")
        )
        for p in points
    ]
    attach_rows(
        benchmark, ["estimator", "clients", "failure_prob", "redundancy"], rows
    )
    print()
    print("Queue-scaled estimation (deadline 160 ms, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<18} clients={row[1]:<3} failures={row[2]:.3f}  "
              f"redundancy={row[3]:.2f}")

    cell = {(p["estimator"], p["num_clients"]): p for p in points}
    windowed = cell[("windowed (paper)", 6)]
    scaled = cell[("queue-scaled", 6)]
    # At medium load the queue-aware model achieves a comparable failure
    # rate without hedging more than the lagging windowed model.
    assert scaled["mean_redundancy"] <= windowed["mean_redundancy"] + 0.2
    assert abs(scaled["failure_probability"] - windowed["failure_probability"]) < 0.1
