"""Benchmark — §6 floor: minimum response time ≈ 3.5 ms."""

from repro.experiments import min_response

from benchmarks.conftest import attach_rows, run_sweep_once


def test_min_response_floor(benchmark):
    (result,) = run_sweep_once(benchmark, min_response.EXPERIMENT)
    attach_rows(
        benchmark,
        ["min_ms", "mean_ms", "paper_ms"],
        [(result["min_response_ms"], result["mean_response_ms"], 3.5)],
    )
    print()
    print(
        f"Minimum response time: {result['min_response_ms']:.2f} ms "
        f"(mean {result['mean_response_ms']:.2f} ms; paper ~3.5 ms)"
    )
    assert 1.0 <= result["min_response_ms"] <= 6.0
