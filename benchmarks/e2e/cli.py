"""Command line of bench_e2e.

``PYTHONPATH=src python -m benchmarks.e2e [--seed 0] [--reps 3]
[--workload NAME] [--out FILE]`` runs the basket and prints every
metric by name with its unit; it exits non-zero on any correctness
failure.  ``--compare A.json B.json`` and ``--profile WORKLOAD`` are the
two analysis modes.  With ``--seconds`` the same program speaks the
benchmark driver's protocol (one workload, one JSON line; see
``BENCHMARK.json``): ``python3 benchmarks/e2e/run.py --workload NAME
--seed N --seconds S --trace 0|1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from . import bench
from .catalogue import END_TO_END, PER_LAYER, PROBES, WORKLOAD_WHY

#: Set-up samples a driver-protocol run reports the median of.
SETUP_SAMPLES = 5
#: Fewest untraced passes of a driver-protocol run: the fastest pass is
#: reported, and a second look matters most when the first pass fell
#: into a slow spell (and therefore used up ``--seconds`` on its own).
MIN_PASSES = 2
#: ``--compare`` runs A and B on one seed, where simulated metrics
#: repeat exactly: ISSUE 11's absolute bound on the two fractions.
SIMULATED_BOUND = 0.01


# -- driver protocol ----------------------------------------------------------


def driver_run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    """One driver-protocol run; prints the result object as the last line.

    Untraced: passes for at least ``seconds`` (and ``MIN_PASSES``),
    host times from the fastest pass at reference speed, the rest
    medians (set-up is measured ``SETUP_SAMPLES`` times).  Traced: one
    untraced pass, one traced pass and the layer probes.
    """
    if trace:
        passes = bench.untraced_passes(workload, seed, scale, reps=1)
        report = bench.workload_report(
            passes, [], bench.traced_pass(workload, seed, scale)
        )
        probes = bench.run_probes(seed, scale)
        report["problems"] += [f"probe: {p}" for p in probes["problems"]]
        metrics = dict(report["per_layer"], **probes["metrics"])
    else:
        passes = bench.untraced_passes(
            workload, seed, scale, reps=MIN_PASSES, seconds=seconds
        )
        extra = bench.setup_samples(
            workload, seed, scale, max(0, SETUP_SAMPLES - len(passes))
        )
        report = bench.workload_report(passes, extra)
        metrics = {
            metric.name: report["end_to_end"][metric.name]
            for metric in END_TO_END
            if metric.bound is not None
        }
    for problem in report["problems"]:
        print(f"PROBLEM {workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not report["problems"],
                "attempted": report["requests"] * len(passes),
                "failed": len(report["problems"]),
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0 if not report["problems"] else 1


# -- full run -----------------------------------------------------------------


def full_run(
    workloads: Sequence[str], seed: int, reps: int, scale: float, out: Optional[str]
) -> int:
    """The issue's run command: every workload, traced pass and probes."""
    out_dir = Path(out).resolve().parent if out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    result: Dict[str, Any] = {
        "benchmark": "bench_e2e",
        "seed": seed,
        "reps": reps,
        "scale": scale,
        "workloads": {},
    }
    for name in workloads:
        passes = bench.untraced_passes(name, seed, scale, reps=reps)
        spans_out = str(out_dir / f"spans_{name}.npz") if out_dir else None
        traced = bench.traced_pass(name, seed, scale, spans_out)
        result["workloads"][name] = report = bench.workload_report(passes, [], traced)
        print_workload(name, report)
    result["probes"] = probes = bench.run_probes(seed, scale)
    print_probes(probes)
    problems = [
        f"{name}: {problem}"
        for name, report in result["workloads"].items()
        for problem in report["problems"]
    ] + [f"probes: {problem}" for problem in probes["problems"]]
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("correct" if not problems else f"FAILED ({len(problems)} problem(s))")
    if out:
        with open(out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    return 0 if not problems else 1


def print_workload(name: str, report: Dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit."""
    print(f"\n== {name}: {WORKLOAD_WHY[name]}")
    print(
        f"   {report['clients']} closed-loop clients, {report['requests']} requests, "
        f"{report['decide_samples']} decide samples, "
        f"{len(report['end_to_end']['wall_us_per_request']['runs'])} untraced passes"
    )
    print("   end to end (tracing off; value [min .. max over passes]):")
    for metric in END_TO_END:
        entry = report["end_to_end"][metric.name]
        clock = "simulated" if metric.exact else "host"
        print(
            f"     {metric.name:<22} {entry['value']:>12.4f} "
            f"[{entry['min']:.4f} .. {entry['max']:.4f}] {metric.unit:<5} "
            f"({clock}, {metric.better} is better)"
        )
    if "per_layer" in report:
        print(f"   per layer (traced pass, {report['span_count']} spans):")
        for metric in PER_LAYER:
            entry = report["per_layer"][metric.name]
            tag = " exact" if metric.exact else ""
            print(f"     {metric.name:<48} {entry['value']:>14.4f} {metric.unit}{tag}")


def print_probes(probes: Dict[str, Any]) -> None:
    """The layer probes (no simulator)."""
    print(f"\n== layer probes (median of {probes['cycles']} cycles)")
    for metric in PROBES:
        entry = probes["metrics"][metric.name]
        print(f"     {metric.name:<48} {entry['value']:>14.4f} {metric.unit}")


# -- compare ------------------------------------------------------------------


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def compare(path_a: str, path_b: str) -> int:
    """Same-machine, same-seed A/B table: per workload x end-to-end metric.

    Host-time metrics: ``regressed`` when B's value is worse than A's by
    more than the bound, ``unresolved`` where the repetitions' spread
    exceeds the bound unless every B run beats every A run.  Simulated
    metrics repeat exactly, so any move is real: ``regressed`` past
    ``SIMULATED_BOUND``.  Exits 1 on a regression.
    """
    base, change = _load(path_a), _load(path_b)
    regressed = False
    print(f"A = {path_a}\nB = {path_b}")
    print(
        f"{'workload':<15} {'metric':<20} {'A':>12} {'B':>12} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    for name in base["workloads"]:
        if name not in change["workloads"]:
            continue
        side_a, side_b = base["workloads"][name], change["workloads"][name]
        for metric in END_TO_END:
            a, b = side_a["end_to_end"][metric.name], side_b["end_to_end"][metric.name]
            verdict = _verdict(metric, a, b)
            regressed = regressed or verdict == "regressed"
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            bound = f"{SIMULATED_BOUND}" if metric.exact else f"{metric.bound:.0%}"
            print(
                f"{name:<15} {metric.name:<20} {a['value']:>12.4f} {b['value']:>12.4f} "
                f"{ratio:>7.3f} {bound:>6}  {verdict} (base A = {a['value']:.4f} {metric.unit})"
            )
        moved = bench.sim_diff(side_a["sim"], side_b["sim"])
        print(
            f"{name:<15} simulated statistics and exact counts: "
            + (f"DIFFER ({moved})" if moved else "identical")
        )
    return 1 if regressed else 0


def _verdict(metric: Any, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if metric.exact:
        if worse_by == 0:
            return "identical"
        if worse_by > SIMULATED_BOUND:
            return "regressed"
        return "moved (worse)" if worse_by > 0 else "moved (better)"
    spread = max((side["max"] - side["min"]) / side["value"] for side in (a, b))
    b_beats_a = all(
        sign * (run_b - run_a) < 0 for run_b in b["runs"] for run_a in a["runs"]
    )
    if spread > metric.bound:
        return "improved" if b_beats_a else "unresolved"
    if worse_by / a["value"] > metric.bound:
        return "regressed"
    return "improved" if b_beats_a else "ok"


# -- profile ------------------------------------------------------------------


def profile(workload: str, seed: int, scale: float) -> int:
    """One cProfile pass by layer next to the span self times."""
    from .layers import self_us_by_layer

    traced = bench.traced_pass(workload, seed, scale)
    span_us = self_us_by_layer(traced["trace"]["spans"])
    profiled = bench.spawn(
        {"mode": "profile", "workload": workload, "seed": seed, "scale": scale,
         "keep_modules": sorted(span_us)}
    )
    profile_s = profiled["profile"]
    span_total, profile_total = sum(span_us.values()), sum(profile_s.values())
    print(f"{workload}: share of the timed region by layer (percent)")
    print(f"{'layer':<34} {'cProfile':>9} {'spans':>9} {'diff':>7}")
    shares = {
        layer: (
            100.0 * profile_s.get(layer, 0.0) / profile_total,
            100.0 * span_us.get(layer, 0.0) / span_total,
        )
        for layer in set(span_us) | set(profile_s)
    }
    for layer, (by_profile, by_spans) in sorted(
        shares.items(), key=lambda item: -max(item[1])
    ):
        if max(by_profile, by_spans) < 0.5:
            continue
        flag = "  <-- >5 points" if abs(by_spans - by_profile) > 5.0 else ""
        print(
            f"{layer:<34} {by_profile:>9.1f} {by_spans:>9.1f} "
            f"{by_spans - by_profile:>+7.1f}{flag}"
        )
    return 0


# -- entry --------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` and run the selected mode; returns the exit code."""
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3, help="untraced passes per workload")
    parser.add_argument("--workload", choices=sorted(WORKLOAD_WHY), default=None)
    parser.add_argument("--out", default=None, metavar="FILE", help="write the report as JSON")
    parser.add_argument("--scale", type=float, default=1.0, help="request-count multiplier")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--profile", choices=sorted(WORKLOAD_WHY), metavar="WORKLOAD")
    parser.add_argument("--seconds", type=float, default=None, help="driver protocol: run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver protocol")
    args = parser.parse_args(argv)
    if not (bench.ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {bench.ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.reps < 1 or args.scale <= 0:
        parser.error("--reps must be >= 1 and --scale > 0")
    if args.compare:
        return compare(*args.compare)
    if args.profile:
        return profile(args.profile, args.seed, args.scale)
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds (driver protocol) needs --workload")
        return driver_run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    names = [args.workload] if args.workload else list(WORKLOAD_WHY)
    return full_run(names, args.seed, args.reps, args.scale, args.out)

