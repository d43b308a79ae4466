"""Benchmarks — §5.1 factor decomposition, A9 calibration, A10 omission."""

from repro.experiments import calibration, factors, omission_faults

from benchmarks.conftest import attach_rows, run_sweep_once


def test_factors_decomposition(benchmark):
    """§5.1: service + queueing dominate; network is a small fraction."""
    rows_data = run_sweep_once(
        benchmark,
        factors.EXPERIMENT,
        grid=({"num_requests": 60},),
    )
    rows = [
        (r["stage"], r["mean_ms"], r["p90_ms"], r["share_of_total"]) for r in rows_data
    ]
    attach_rows(benchmark, ["stage", "mean_ms", "p90_ms", "share"], rows)
    print()
    print("Response-time factors (winning-reply path)")
    for row in rows:
        print(f"  {row[0]:<12} mean={row[1]:7.2f} ms  p90={row[2]:7.2f} ms  "
              f"share={row[3]:.3f}")

    by_stage = {r["stage"]: r for r in rows_data}
    network_share = (
        by_stage["request-net"]["share_of_total"]
        + by_stage["reply-net"]["share_of_total"]
    )
    # The paper's independence argument: network is a small fraction.
    assert network_share < 0.15
    # Equation 2's three factors dominate the total.
    assert (
        by_stage["service"]["share_of_total"]
        + by_stage["queueing"]["share_of_total"]
        + network_share
    ) > 0.9


def test_model_calibration(benchmark):
    """A9: the Eq. 1 model is calibrated on the paper's LAN and degrades
    under correlated congestion."""
    buckets = run_sweep_once(
        benchmark,
        calibration.EXPERIMENT,
        grid=calibration.grid(num_requests=40),
        seeds=(0, 1),
    )
    # One summary row per regime (every bucket row repeats the regime's
    # Brier score and worst overconfidence).
    results = list({r["regime"]: r for r in buckets}.values())
    rows = [
        (r["regime"], r["brier"], r["max_overconfidence"]) for r in results
    ]
    attach_rows(benchmark, ["regime", "brier", "max_overconfidence"], rows)
    print()
    print("Equation 1 calibration")
    for row in rows:
        print(f"  {row[0]:<28} brier={row[1]:.4f}  "
              f"max overconfidence={row[2]:+.3f}")

    by_regime = {r["regime"]: r for r in results}
    independent = by_regime["independent (paper LAN)"]
    correlated = by_regime["correlated (shared switch)"]
    # Reasonably calibrated where the paper's assumption holds ...
    assert independent["brier"] < 0.12
    assert independent["max_overconfidence"] < 0.1
    # ... and strictly worse when response times are correlated.
    assert correlated["brier"] > independent["brier"]


def test_omission_faults(benchmark):
    """A10: redundancy masks message loss; single-replica routing cannot."""
    points = run_sweep_once(
        benchmark,
        omission_faults.EXPERIMENT,
        grid=omission_faults.grid(loss_rates=(0.0, 0.05), num_requests=30),
        seeds=(0, 1),
    )
    rows = [
        tuple(
            p[k]
            for k in ("policy", "loss_probability", "failure_probability", "timeout_fraction")
        )
        for p in points
    ]
    attach_rows(
        benchmark, ["policy", "loss", "failure_prob", "timeout_frac"], rows
    )
    print()
    print("Omission faults (deadline 180 ms, Pc = 0.9)")
    for row in rows:
        print(f"  {row[0]:<16} loss={row[1]:.2f}  failures={row[2]:.3f}  "
              f"timeouts={row[3]:.3f}")

    cell = {(p["policy"], p["loss_probability"]): p for p in points}
    # The dynamic policy holds the budget through 5 % link loss.
    assert cell[("dynamic (paper)", 0.05)]["failure_probability"] <= 0.1
    # Single-replica routing suffers more at the same loss rate.
    assert (
        cell[("single-fastest", 0.05)]["failure_probability"]
        > cell[("dynamic (paper)", 0.05)]["failure_probability"]
    )
