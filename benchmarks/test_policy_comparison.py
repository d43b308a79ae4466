"""Benchmark — Ablation A1/A4: dynamic policy vs. related-work baselines.

Asserted shape: the paper's policy meets the failure budget with less
redundancy than send-to-all, while the informed single-replica baselines
cannot hold the budget at a tight deadline.
"""

from repro.experiments import policy_comparison

from benchmarks.conftest import attach_rows, run_sweep_once

SUBSET = (
    "dynamic (paper)",
    "dynamic, no t-delta",
    "all-replicas",
    "single-fastest",
    "lowest-mean",
    "random-1",
)


def test_policy_comparison(benchmark):
    results = run_sweep_once(
        benchmark,
        policy_comparison.EXPERIMENT,
        grid=policy_comparison.grid(policies=SUBSET, deadline_ms=120.0),
        seeds=(0, 1),
    )
    rows = [
        tuple(
            r[k]
            for k in ("policy", "failure_probability", "mean_redundancy", "mean_response_ms")
        )
        for r in results
    ]
    attach_rows(
        benchmark,
        ["policy", "failure_prob", "redundancy", "response_ms"],
        rows,
    )
    print()
    print("Policy comparison (deadline 120 ms, Pc = 0.9, budget 0.10)")
    for row in rows:
        print(f"  {row[0]:<22} failures={row[1]:.3f}  "
              f"redundancy={row[2]:.2f}  response={row[3]:.1f} ms")

    by_name = {r["policy"]: r for r in results}
    budget = 0.10
    # The paper's policy meets the budget.
    assert by_name["dynamic (paper)"]["failure_probability"] <= budget
    # ... with strictly less redundancy than active replication.
    assert (
        by_name["dynamic (paper)"]["mean_redundancy"]
        < by_name["all-replicas"]["mean_redundancy"]
    )
    # Single-replica baselines under-hedge at this deadline.
    single_failures = min(
        by_name["single-fastest"]["failure_probability"],
        by_name["lowest-mean"]["failure_probability"],
        by_name["random-1"]["failure_probability"],
    )
    assert single_failures > budget
