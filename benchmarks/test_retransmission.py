"""Benchmark — Ablation A13: concurrent redundancy vs. retransmission."""

from repro.experiments import retransmission

from benchmarks.conftest import attach_rows, run_sweep_once


def test_redundancy_vs_retransmission(benchmark):
    points = run_sweep_once(
        benchmark,
        retransmission.EXPERIMENT,
        grid=retransmission.grid(deadlines_ms=(140.0, 240.0), num_requests=30),
        seeds=(0, 1),
    )
    rows = [
        (
            p["strategy"],
            p["deadline_ms"],
            p["failure_probability"],
            p["messages_per_request"],
        )
        for p in points
    ]
    attach_rows(
        benchmark, ["strategy", "deadline", "failure_prob", "msgs"], rows
    )
    print()
    print("Redundancy vs retransmission (crash at t=8 s, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<26} deadline={row[1]:>5.0f}  failures={row[2]:.3f}  "
              f"msgs/req={row[3]:.2f}")

    cell = {(p["strategy"], p["deadline_ms"]): p for p in points}
    tight_dynamic = cell[("dynamic (paper)", 140.0)]
    tight_retry = cell[("retransmit (related work)", 140.0)]
    # The paper's §1 claim: at tight deadlines, retrying after a timeout
    # cannot substitute for concurrent redundancy.
    assert tight_dynamic["failure_probability"] <= 0.1
    assert tight_retry["failure_probability"] > tight_dynamic["failure_probability"]
    # The flip side, honestly reported: retransmission is cheaper.
    assert tight_retry["messages_per_request"] < tight_dynamic["messages_per_request"]