"""Run children one at a time and fold their results into a report.

One driver process, one child interpreter at a time (``nproc`` is 2 and
the box is shared): ``reps`` untraced passes give the end-to-end metrics
(with min/max over the passes), one traced pass gives the per-layer metrics, one
probe child gives the layer probes.  Every gate lands in ``problems``;
a report with problems is a failed run.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .calibration import slowdowns
from .catalogue import END_TO_END, PER_LAYER, PROBES

__all__ = [
    "ChildFailed",
    "spawn",
    "untraced_passes",
    "setup_samples",
    "traced_pass",
    "run_probes",
    "steady_metrics",
    "workload_report",
    "sim_diff",
]

ROOT = Path(__file__).resolve().parents[2]
#: A child that runs longer than this is stuck (the slowest traced pass
#: is well under a minute at seed speed).
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or printed no result."""


def spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = dict(spec, spawned_at=time.monotonic())
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise ChildFailed(
            f"child {spec['mode']}/{spec.get('workload')} exited "
            f"{done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pass_spec(workload: str, seed: int, scale: float, **extra: Any) -> Dict[str, Any]:
    return dict(
        {"mode": "pass", "workload": workload, "seed": seed, "scale": scale, "trace": False},
        **extra,
    )


def untraced_passes(
    workload: str, seed: int, scale: float, reps: int = 1, seconds: float = 0.0
) -> List[Dict[str, Any]]:
    """At least ``reps`` untraced passes, and at least ``seconds`` of them."""
    passes: List[Dict[str, Any]] = []
    started = time.monotonic()
    while len(passes) < reps or time.monotonic() - started < seconds:
        passes.append(spawn(_pass_spec(workload, seed, scale)))
    return passes


def setup_samples(workload: str, seed: int, scale: float, count: int) -> List[float]:
    """``count`` extra set-ups (imports + build, no run) in fresh children."""
    return [
        spawn(_pass_spec(workload, seed, scale, mode="setup"))["setup_s"]
        for _ in range(count)
    ]


def traced_pass(
    workload: str, seed: int, scale: float, spans_out: Optional[str] = None
) -> Dict[str, Any]:
    """One traced pass (wrappers installed in the child only)."""
    return spawn(_pass_spec(workload, seed, scale, trace=True, spans_out=spans_out))


def run_probes(seed: int, scale: float) -> Dict[str, Any]:
    """The layer probes, in their own child (it owns its peak RSS)."""
    result = spawn({"mode": "probes", "seed": seed, "scale": scale})
    return {
        "metrics": {
            metric.name: {"value": result["metrics"][metric.name], "unit": metric.unit}
            for metric in PROBES
        },
        "cycles": result["cycles"],
        "problems": result["problems"],
    }


def steady_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    """One pass's host-time metrics at reference machine speed.

    Every segment of the region, and every decision's delta, is divided
    by the slowdown the calibration spins around it measured (see
    ``calibration.py``); the segments are summed, so the whole region is
    still counted.
    """
    factors = slowdowns(run["spins_s"])
    every, last = run["mark_every"], len(factors) - 1
    region_s = sum(s / f for s, f in zip(run["segments_s"], factors))
    decide = [
        d / factors[min(index // every, last)]
        for index, d in enumerate(run["decide_us"])
        if d is not None
    ]
    p50, p99 = (
        (statistics.median(decide), statistics.quantiles(decide, n=100)[98])
        if len(decide) > 1
        else (0.0, 0.0)
    )
    return {
        "wall_us_per_request": region_s * 1e6 / run["sim"]["requests"],
        "decide_us_p50": p50,
        "decide_us_p99": p99,
    }


def _per_pass_values(run: Dict[str, Any]) -> Dict[str, float]:
    sim = run["sim"]
    requests = sim["requests"]
    return dict(
        steady_metrics(run),
        timely_fraction=sim["timely"] / requests,
        failed_fraction=(sim["timeouts"] + sim["sheds"]) / requests,
        peak_rss_mb=run["peak_rss_mb"],
        setup_s=run["setup_s"],
    )


def workload_report(
    passes: List[Dict[str, Any]],
    extra_setups: List[float],
    traced: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Fold one workload's passes into metrics, checking every gate."""
    from .layers import per_layer_metrics

    first = passes[0]
    problems: List[str] = []
    for index, run in enumerate(passes):
        problems.extend(f"pass {index}: {p}" for p in run["problems"])
        if run["sim"] != first["sim"]:
            problems.append(
                f"pass {index}: simulated statistics differ from pass 0 "
                f"({sim_diff(first['sim'], run['sim'])})"
            )
    runs = [_per_pass_values(run) for run in passes]
    end_to_end = {}
    for metric in END_TO_END:
        values = [run[metric.name] for run in runs]
        if metric.name == "setup_s":
            values = values + extra_setups
        # What reference-speed scaling leaves behind is one-sided (a
        # very slow spell is under-corrected), so the fastest pass is
        # the steadiest estimate of a host time; the rest are medians.
        fastest = metric.name in ("wall_us_per_request", "decide_us_p50")
        end_to_end[metric.name] = {
            "value": min(values) if fastest else statistics.median(values),
            "min": min(values),
            "max": max(values),
            "runs": values,
            "unit": metric.unit,
        }
    report: Dict[str, Any] = {
        "clients": first["clients"],
        "requests": first["sim"]["requests"],
        "decide_samples": first["sim"]["decide_samples"],
        "end_to_end": end_to_end,
        "sim": first["sim"],
    }
    if traced is not None:
        problems.extend(f"traced pass: {p}" for p in traced["problems"])
        if traced["sim"] != first["sim"]:
            problems.append(
                "tracing perturbed the simulation "
                f"({sim_diff(first['sim'], traced['sim'])})"
            )
        # Host-time ratios pair the traced pass with the fastest untraced one.
        twin = min(range(len(runs)), key=lambda i: runs[i]["wall_us_per_request"])
        values = per_layer_metrics(
            traced, steady_metrics(traced), passes[twin], runs[twin]
        )
        report["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in PER_LAYER
        }
        report["spans"] = traced["trace"]["spans"]
        report["span_count"] = traced["trace"]["span_count"]
    report["problems"] = problems
    return report


def sim_diff(base: Dict[str, Any], other: Dict[str, Any]) -> str:
    """The keys on which two ``sim`` blocks disagree, with both values."""
    keys = sorted(k for k in set(base) | set(other) if base.get(k) != other.get(k))
    return ", ".join(f"{k}: {base.get(k)!r} != {other.get(k)!r}" for k in keys)
