"""Benchmark — Ablation A14: the adaptation transient around a crash."""

from repro.experiments import adaptation_timeline

from benchmarks.conftest import attach_rows, run_sweep_once

CRASH_WINDOW = (10_000.0, 12_500.0)


def test_adaptation_timeline(benchmark):
    buckets = run_sweep_once(benchmark, adaptation_timeline.EXPERIMENT)
    rows = [
        (b["policy"], b["start_ms"], b["requests"], b["failures"], b["timeouts"])
        for b in buckets
    ]
    attach_rows(
        benchmark, ["policy", "start_ms", "requests", "failures", "timeouts"],
        rows,
    )

    def crash_bucket(policy):
        return next(
            b for b in buckets
            if b["policy"] == policy and b["start_ms"] == CRASH_WINDOW[0]
        )

    dynamic = crash_bucket("dynamic (paper)")
    single = crash_bucket("single-fastest")
    print()
    print("Crash-window bucket (10.0-12.5 s; crash at t=10 s)")
    for b in (dynamic, single):
        print(f"  {b['policy']:<16} requests={b['requests']}  "
              f"failures={b['failures']}  timeouts={b['timeouts']}")

    # The §5.3.2 hedge masks the entire detection window ...
    assert dynamic["failures"] == 0
    assert dynamic["timeouts"] == 0
    # ... which single-replica routing demonstrably does not.
    assert single["failures"] + single["timeouts"] >= 1
    # Outside the window, both policies keep serving (liveness check).
    for b in buckets:
        if b["start_ms"] < CRASH_WINDOW[0]:
            assert b["requests"] > 0
