"""Per-layer metrics from one traced pass (and its untraced twin).

Layer = module name: a span's layer is the text before the colon in its
name.  ``*_us_per_request`` is span *self* time summed over the run and
divided by requests issued; ``*_per_decision`` divides by
``DynamicSelectionPolicy.decide`` calls; ``*_per_schedule`` by
``run_scenario`` calls (0.0 on workloads that run no campaign).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.gateway.handlers.timing_fault import MSG_PERF, MSG_REPLY

__all__ = ["per_layer_metrics", "self_us_by_layer"]

_CLIENT = "gateway.handlers.timing_fault:TimingFaultClientHandler."
_SERVER = "gateway.handlers.timing_fault:TimingFaultServerHandler."
_DECIDE = "core.selection:DynamicSelectionPolicy.decide"
_SCENARIO = "faultinject.campaign:run_scenario"
_KERNEL = "sim.kernel:Simulator.run"


def self_us_by_layer(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Span self time summed per layer (module), microseconds."""
    layers: Dict[str, float] = {}
    for name, row in spans.items():
        layer = name.split(":", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_us"]
    return layers


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    traced: Dict[str, Any],
    traced_steady: Dict[str, float],
    untraced: Dict[str, Any],
    untraced_steady: Dict[str, float],
) -> Dict[str, float]:
    """Every catalogue ``PER_LAYER`` metric for one workload.

    ``traced`` and ``untraced`` are child results of the same workload
    and seed; the ``*_steady`` dicts are their host-time metrics
    at reference machine speed, whose ratio is the tracing overhead.
    Span times are scaled by the traced pass's own steady/measured ratio,
    so they too read at reference speed.
    """
    requests = traced["sim"]["requests"]
    speed = _ratio(
        traced_steady["wall_us_per_request"], traced["wall_s"] * 1e6 / requests
    )
    spans: Dict[str, Dict[str, float]] = {
        name: {
            "calls": row["calls"],
            "self_us": row["self_us"] * speed,
            "total_us": row["total_us"] * speed,
        }
        for name, row in traced["trace"]["spans"].items()
    }
    counts: Dict[str, int] = traced["trace"]["counts"]
    edges = [(p, c, us * speed) for p, c, us in traced["trace"]["edges"]]
    sim = traced["sim"]
    decisions = spans.get(_DECIDE, {}).get("calls", 0)
    schedules = spans.get(_SCENARIO, {}).get("calls", 0)

    def self_us(prefixes: Iterable[str]) -> float:
        prefixes = tuple(prefixes)
        return sum(
            row["self_us"] for name, row in spans.items() if name.startswith(prefixes)
        )

    def calls(prefix: str) -> int:
        return sum(
            row["calls"] for name, row in spans.items() if name.startswith(prefix)
        )

    def total_us(name: str) -> float:
        return spans.get(name, {}).get("total_us", 0.0)

    def edge_us(parent: str, child_prefix: str) -> float:
        return sum(
            us for p, c, us in edges if p == parent and c.startswith(child_prefix)
        )

    # The calibration spins are the benchmark's own; they are no layer's.
    root_us = total_us("driver:timed_region") - total_us("driver:calibration")
    kernel_self = self_us([_KERNEL])
    # `submit` is the interception plus the dispatch timer it arms
    # (selection, transmission); `server` is everything the server
    # handler defines; `reply` is the rest of the client handler: reply
    # and perf-push handling, the upcall, timeout expiry, probe ticks.
    submit_self = self_us([_CLIENT + "submit"])
    server_self = self_us([_SERVER])
    handlers_self = self_us(["gateway.handlers.timing_fault:"])
    received = counts.get(f"gateway.handlers.received.{MSG_REPLY}", 0)

    metrics = {
        "sim.kernel.events_per_request": _ratio(counts.get("sim.kernel.events", 0), requests),
        "sim.kernel.self_us_per_request": _ratio(kernel_self, requests),
        "group.failure_detector.polls_per_request": _ratio(
            calls("group.failure_detector:"), requests
        ),
        "group.failure_detector.self_us_per_request": _ratio(
            self_us(["group.failure_detector:"]), requests
        ),
        "net.transport.msgs_per_request": _ratio(counts.get("net.transport.msgs", 0), requests),
        "net.transport.perf_msgs_per_request": _ratio(
            counts.get(f"net.transport.msgs.{MSG_PERF}", 0), requests
        ),
        "net.transport.self_us_per_request": _ratio(self_us(["net.transport:"]), requests),
        "net.lan.self_us_per_request": _ratio(self_us(["net.lan:"]), requests),
        "orb.iiop.self_us_per_request": _ratio(self_us(["orb.iiop:"]), requests),
        "orb.orb.self_us_per_request": _ratio(self_us(["orb.orb:"]), requests),
        "gateway.handlers.submit_self_us_per_request": _ratio(submit_self, requests),
        "gateway.handlers.reply_self_us_per_request": _ratio(
            handlers_self - submit_self - server_self, requests
        ),
        "gateway.handlers.server_self_us_per_request": _ratio(server_self, requests),
        "gateway.handlers.replies_per_request": _ratio(received, requests),
        "gateway.handlers.redundant_reply_share": _ratio(
            received - sim["first_replies"], received
        ),
        "gateway.handlers.probes_per_request": _ratio(sim["probes_sent"], requests),
        "core.repository.writes_per_decision": _ratio(calls("core.repository:"), decisions),
        "core.repository.self_us_per_request": _ratio(self_us(["core.repository:"]), requests),
        "core.estimator.self_us_per_decision": _ratio(self_us(["core.estimator:"]), decisions),
        "core.estimator.cache_hit_ratio": _ratio(
            sim["cache_hits"], sim["cache_hits"] + sim["cache_misses"]
        ),
        "core.distribution.self_us_per_decision": _ratio(
            self_us(["core.distribution:"]), decisions
        ),
        "core.distribution.convolve_calls_per_decision": _ratio(
            calls("core.distribution:DiscretePMF.convolve")
            + counts.get("core.distribution.batch_pairs", 0),
            decisions,
        ),
        "core.selection.algorithm1_us_per_decision": _ratio(
            self_us(["core.selection:select_replicas_arrays"]), decisions
        ),
        # The paper's Fig. 3 split: share of delta spent computing
        # distributions (estimator spans directly under decide).
        "core.selection.distribution_share": _ratio(
            edge_us(_DECIDE, "core.estimator:"), total_us(_DECIDE)
        ),
        "core.selection.decide_us_p99": untraced_steady["decide_us_p99"],
        "core.selection.mean_redundancy": _ratio(
            sim["redundancy_sum"], requests - sim["sheds"]
        ),
        "core.selection.fallback_share": _ratio(
            sim["fallback_decisions"], requests - sim["sheds"]
        ),
        "overload.self_us_per_request": _ratio(self_us(["overload."]), requests),
        "overload.shed_fraction": _ratio(sim["sheds"], requests),
        "overload.mean_load_index": _ratio(
            sim["load_index_sum"], sim["load_index_samples"]
        ),
        "health.monitor.self_us_per_request": _ratio(self_us(["health.monitor:"]), requests),
        "health.monitor.quarantines": float(sim["quarantines"]),
        "faultinject.transport.self_us_per_request": _ratio(
            self_us(["faultinject.transport:"]), requests
        ),
        "faultinject.schedule.draw_us_per_schedule": _ratio(
            total_us("faultinject.campaign:draw_composed_schedule"), schedules
        ),
        # run_scenario minus its Simulator.run and audit children: stack
        # build, schedule draw, driver wiring, outcome assembly.
        "faultinject.campaign.build_us_per_schedule": _ratio(
            total_us(_SCENARIO)
            - edge_us(_SCENARIO, _KERNEL)
            - edge_us(_SCENARIO, "faultinject.auditor:"),
            schedules,
        ),
        "faultinject.auditor.audit_us_per_request": _ratio(
            total_us("faultinject.auditor:LifecycleAuditor.audit"), requests
        ),
        "experiments.parallel.sweep_us_per_schedule": _ratio(
            self_us(["experiments.parallel:"]), schedules
        ),
        "metrics.collector.self_us_per_request": _ratio(
            self_us(["metrics.collector:"]), requests
        ),
        "sim.trace.self_us_per_request": _ratio(self_us(["sim.trace:"]), requests),
        "sim.random.self_us_per_request": _ratio(self_us(["sim.random:"]), requests),
        "trace.overhead_ratio": _ratio(
            traced_steady["wall_us_per_request"],
            untraced_steady["wall_us_per_request"],
        ),
        "trace.attributed_share": _ratio(root_us - kernel_self, root_us),
        "driver.cpu_us_per_request": _ratio(untraced["cpu_s"] * 1e6, requests),
        "failed_fraction": _ratio(sim["timeouts"] + sim["sheds"], requests),
    }
    return metrics
