"""Names, units, directions and bounds of every metric and workload.

``BENCHMARK.json`` at the repo root is the driver-facing copy of this
catalogue; ``test_bench_e2e.py`` asserts the two agree.  Later issues
refer to these names verbatim, so renaming one is a benchmark change of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Metric",
    "END_TO_END",
    "PER_LAYER",
    "PROBES",
    "WORKLOAD_WHY",
    "CHAOS_DIGEST_SEED0",
    "benchmark_json",
]

#: Campaign digest prefix of the first 100 schedules at base seed 0 (the
#: full 200-schedule A17 campaign is ``b60ebaafca63f2fd``; the builder's
#: time cap made ISSUE 11's fallback — first 100 schedules — the default).
CHAOS_DIGEST_SEED0 = "9c6c3ad4bf43a89d"


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the base median by which an end-to-end
    metric may worsen before ``--compare`` (and the driver) call it a
    regression; per-layer metrics carry none.  ``exact`` marks simulated
    statistics and counts that must repeat bit-for-bit.
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    exact: bool = False


#: Measured with tracing off, reported on every workload.  Host time and
#: simulated results are told apart by ``exact`` (simulated = exact).
#: Bounds are about three times the widest quartile spread seen over
#: ten seeds on the seed's (shared, noisy) sandbox: host times spread up
#: to 6.9 % (mostly real seed-to-seed difference), ``timely_fraction``
#: up to 2.9 % (chaos_campaign: the schedules differ by seed),
#: ``peak_rss_mb`` up to 3.1 %.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_us_per_request", "us", "lower", 0.20),
    Metric("decide_us_p50", "us", "lower", 0.20),
    Metric("timely_fraction", "ratio", "higher", 0.10, exact=True),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    # Zero on a healthy run, so it cannot carry a relative bound: the
    # driver contract gets it as a per-layer metric (timely_fraction
    # already counts every shed and timeout as a miss).
    Metric("failed_fraction", "ratio", "lower", None, exact=True),
)

_US = "us"
_COUNT = "count"
_RATIO = "ratio"


def _layer(name: str, unit: str, better: str = "lower", exact: bool = False) -> Metric:
    return Metric(name, unit, better, None, exact)


#: From the traced run (layer = module name).  ``*_us_per_request`` is
#: span self time summed over the run / requests issued.
PER_LAYER: Tuple[Metric, ...] = (
    _layer("sim.kernel.events_per_request", _COUNT, exact=True),
    _layer("sim.kernel.self_us_per_request", _US),
    _layer("group.failure_detector.polls_per_request", _COUNT, exact=True),
    _layer("group.failure_detector.self_us_per_request", _US),
    _layer("net.transport.msgs_per_request", _COUNT, exact=True),
    _layer("net.transport.perf_msgs_per_request", _COUNT, exact=True),
    _layer("net.transport.self_us_per_request", _US),
    _layer("net.lan.self_us_per_request", _US),
    _layer("orb.iiop.self_us_per_request", _US),
    _layer("orb.orb.self_us_per_request", _US),
    _layer("gateway.handlers.submit_self_us_per_request", _US),
    _layer("gateway.handlers.reply_self_us_per_request", _US),
    _layer("gateway.handlers.server_self_us_per_request", _US),
    _layer("gateway.handlers.replies_per_request", _COUNT, exact=True),
    _layer("gateway.handlers.redundant_reply_share", _RATIO, exact=True),
    _layer("gateway.handlers.probes_per_request", _COUNT, exact=True),
    _layer("core.repository.writes_per_decision", _COUNT, exact=True),
    _layer("core.repository.self_us_per_request", _US),
    _layer("core.estimator.self_us_per_decision", _US),
    _layer("core.estimator.cache_hit_ratio", _RATIO, "higher", exact=True),
    _layer("core.distribution.self_us_per_decision", _US),
    _layer("core.distribution.convolve_calls_per_decision", _COUNT, exact=True),
    _layer("core.selection.algorithm1_us_per_decision", _US),
    _layer("core.selection.distribution_share", _RATIO),
    _layer("core.selection.decide_us_p99", _US),
    _layer("core.selection.mean_redundancy", _COUNT, exact=True),
    _layer("core.selection.fallback_share", _RATIO, exact=True),
    _layer("overload.self_us_per_request", _US),
    _layer("overload.shed_fraction", _RATIO, exact=True),
    _layer("overload.mean_load_index", _RATIO, exact=True),
    _layer("health.monitor.self_us_per_request", _US),
    _layer("health.monitor.quarantines", _COUNT, exact=True),
    _layer("faultinject.transport.self_us_per_request", _US),
    _layer("faultinject.schedule.draw_us_per_schedule", _US),
    _layer("faultinject.campaign.build_us_per_schedule", _US),
    _layer("faultinject.auditor.audit_us_per_request", _US),
    _layer("experiments.parallel.sweep_us_per_schedule", _US),
    _layer("metrics.collector.self_us_per_request", _US),
    _layer("sim.trace.self_us_per_request", _US),
    _layer("sim.random.self_us_per_request", _US),
    _layer("trace.overhead_ratio", _RATIO),
    _layer("trace.attributed_share", _RATIO, "higher"),
    _layer("driver.cpu_us_per_request", _US),
    _layer("failed_fraction", _RATIO, exact=True),
)

#: Layer probes: no simulator, run once, reported beside the per-layer
#: metrics (the live-run points ``BENCH_scale.json``'s "cached" hides).
PROBES: Tuple[Metric, ...] = (
    _layer("core.estimator.decide_us_dirty0_n1024", _US),
    _layer("core.estimator.decide_us_dirty1_n1024", _US),
    _layer("core.estimator.decide_us_dirty8_n1024", _US),
    _layer("core.repository.rss_mb_n1024", "MB"),
    _layer("sim.kernel.events_per_s_p512", "1/s", "higher"),
)

#: One line per workload: why it is in the basket (full rationale and
#: the interaction table live in README.md).
WORKLOAD_WHY: Dict[str, str] = {
    "paper_idle": (
        "paper section 6 testbed, 2 closed-loop clients with 1 s think: "
        "kernel and failure-detector polls dominate, estimator barely shows"
    ),
    "overload_knee": (
        "A16 governed stack at the knee, 8 closed-loop clients: perf fan-out "
        "makes repository/estimator write-heavy; only user of overload.*"
    ),
    "fleet_live": (
        "256 replicas, l=60, 4 closed-loop clients: read-heavy estimator, one "
        "reply dirties one row but invalidates the batch CDF; sets peak RSS"
    ),
    "chaos_campaign": (
        "A17 campaign slice, 100 cold five-replica stacks, 2 closed-loop "
        "clients each: faultinject, health, probes, audit and build in region"
    ),
}


def benchmark_json(run_seconds: int = 15) -> dict:
    """The ``BENCHMARK.json`` document this catalogue stands for."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOAD_WHY.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.bound is not None
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER + PROBES
        ],
    }
