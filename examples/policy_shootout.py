#!/usr/bin/env python
"""Policy shootout: the paper's algorithm vs. the related-work baselines.

Runs the same two-client workload (deadline 140 ms, Pc >= 0.9) under every
selection policy in :mod:`repro.core.baselines` plus the paper's dynamic
policy, and prints a league table.  This regenerates ablation A1 of
DESIGN.md interactively (``python -m repro.experiments A1`` prints the
same rows as a plain table).

Run:  python examples/policy_shootout.py
"""

from repro.experiments.policy_comparison import EXPERIMENT
from repro.experiments.registry import run


def main() -> None:
    print("Running each policy on the Fig. 4 workload "
          "(deadline 140 ms, Pc >= 0.9, 3 seeds)...\n")
    rows = run(EXPERIMENT).rows  # best policy first

    header = (f"{'policy':<22} {'failures':>9} {'budget?':>8} "
              f"{'redundancy':>11} {'response':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['policy']:<22} {row['failure_probability']:>9.3f} "
              f"{row['meets_budget']:>8} {row['mean_redundancy']:>11.2f} "
              f"{row['mean_response_ms']:>7.1f}ms")

    by_policy = {row["policy"]: row for row in rows}
    dynamic = by_policy["dynamic (paper)"]["mean_redundancy"]
    broadcast = by_policy["all-replicas"]["mean_redundancy"]
    print(f"\nThe paper's policy held the 10% budget with "
          f"{dynamic:.1f} replicas/request — "
          f"{broadcast / dynamic:.1f}x less "
          f"server load than active replication.")


if __name__ == "__main__":
    main()
