"""Benchmark — Ablation A2: the single-crash guarantee of §5.3.2."""

from repro.experiments import crash_tolerance

from benchmarks.conftest import attach_rows, run_sweep_once


def test_crash_tolerance(benchmark):
    results = run_sweep_once(
        benchmark, crash_tolerance.EXPERIMENT, seeds=(0, 1, 2)
    )
    rows = [
        tuple(
            r[k]
            for k in ("policy", "failure_probability", "timeout_fraction", "mean_redundancy")
        )
        for r in results
    ]
    attach_rows(
        benchmark,
        ["policy", "failure_prob", "timeout_frac", "redundancy"],
        rows,
    )
    print()
    print("Crash tolerance (replica-1 crashes at t=10 s; budget 0.10)")
    for row in rows:
        print(f"  {row[0]:<24} failures={row[1]:.3f}  "
              f"timeouts={row[2]:.3f}  redundancy={row[3]:.2f}")

    by_name = {r["policy"]: r for r in results}
    # The paper's policy keeps the budget through the crash.
    assert by_name["dynamic (paper)"]["failure_probability"] <= 0.10
    # The hedged set masks the crash entirely: no request times out.
    assert by_name["dynamic (paper)"]["timeout_fraction"] == 0.0
    # Higher tolerance never hedges with fewer replicas.
    assert (
        by_name["dynamic, 2-crash hedge"]["mean_redundancy"]
        >= by_name["dynamic (paper)"]["mean_redundancy"]
    )
    assert (
        by_name["dynamic (paper)"]["mean_redundancy"]
        >= by_name["dynamic, no crash hedge"]["mean_redundancy"]
    )
