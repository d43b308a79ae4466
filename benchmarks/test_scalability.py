"""Benchmark — Ablation A5: scalability with concurrent clients (§1/§4)."""

from repro.experiments import scalability

from benchmarks.conftest import attach_rows, run_sweep_once


def test_scalability(benchmark):
    points = run_sweep_once(
        benchmark,
        scalability.EXPERIMENT,
        grid=scalability.grid(client_counts=(1, 4, 8), num_requests=30),
        seeds=(0, 1),
    )
    rows = [
        (
            p["policy"],
            p["num_clients"],
            p["failure_probability"],
            p["mean_redundancy"],
            p["server_load_amplification"],
        )
        for p in points
    ]
    attach_rows(
        benchmark,
        ["policy", "clients", "failure_prob", "redundancy", "amplification"],
        rows,
    )
    print()
    print("Scalability (deadline 160 ms, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<16} clients={row[1]:<3} failures={row[2]:.3f}  "
              f"redundancy={row[3]:.2f}  msgs/request={row[4]:.2f}")

    cell = {(p["policy"], p["num_clients"]): p for p in points}
    # Send-to-all amplifies server load ~7x regardless of client count.
    assert cell[("all-replicas", 8)]["server_load_amplification"] > 6.0
    # The dynamic policy stays well below that at every scale.
    for clients in (1, 4, 8):
        assert (
            cell[("dynamic (paper)", clients)]["server_load_amplification"]
            < cell[("all-replicas", clients)]["server_load_amplification"]
        )
    # It meets the failure budget at light load ...
    assert cell[("dynamic (paper)", 1)]["failure_probability"] <= 0.1
    assert cell[("dynamic (paper)", 4)]["failure_probability"] <= 0.1
    # ... and under congestion (8 clients make the 160 ms deadline
    # infeasible) it still degrades more gracefully than no-redundancy
    # selection, at a fraction of send-to-all's load.
    assert (
        cell[("dynamic (paper)", 8)]["failure_probability"]
        < cell[("single-fastest", 8)]["failure_probability"]
    )
