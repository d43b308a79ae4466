"""Experiment A17 — the chaos campaign: randomized composed fault storms.

Hundreds of randomized schedules — partitions × crashes × degradations ×
overload surges, every family from its own disjoint RNG substream — each
run against a fresh five-replica deployment with the paper's dynamic
selection client (health subsystem on) and audited for the full
lifecycle invariant set plus campaign QoS floors.  Scenarios fan across
worker processes through the sharded sweep engine; the campaign digest
is bit-identical for any worker count.

Every failure report carries a one-line replay recipe, and ``--replay``
reruns exactly that scenario, delta-debugging its schedule down to a
1-minimal failing reproducer (``repro.faultinject.campaign
.shrink_schedule``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..faultinject.campaign import (
    CampaignConfig,
    CampaignResult,
    flatten_schedule,
    run_campaign,
    run_scenario,
    schedule_digest,
    shrink_schedule,
)
from .harness import print_table
from .registry import DIGESTS_FILE, Command

__all__ = ["main", "EXPERIMENT"]


def _summarize(result: CampaignResult) -> List[str]:
    outcomes = result.outcomes
    n = len(outcomes)
    lines = [
        f"campaign: {n} schedules, {len(result.failures)} failed, "
        f"digest {result.digest[:16]}, {result.workers} worker(s), "
        f"{result.elapsed_s:.1f}s",
        f"submitted {sum(o.submitted for o in outcomes)}, "
        f"replies {sum(o.replies for o in outcomes)}, "
        f"timeouts {sum(o.timeouts for o in outcomes)}, "
        f"sheds {sum(o.sheds for o in outcomes)}",
    ]
    for outcome in result.failures:
        lines.append(f"FAILED schedule #{outcome.index}: {outcome.replay}")
        lines.extend(f"  - {v}" for v in outcome.violations)
    return lines


def _shrink_failure(cfg: CampaignConfig, index: int) -> List[str]:
    """Minimize a failing scenario's schedule; returns report lines."""
    from ..faultinject.campaign import draw_composed_schedule

    def fails(candidate) -> bool:
        return run_scenario(cfg, index, schedule=candidate).failed

    schedule = draw_composed_schedule(cfg, index)
    minimal = shrink_schedule(schedule, fails)
    items = flatten_schedule(minimal)
    lines = [
        f"shrunk schedule #{index}: {len(flatten_schedule(schedule))} -> "
        f"{len(items)} fault window(s), "
        f"digest {schedule_digest(minimal)[:12]}",
    ]
    lines.extend(f"  [{family}] {fault!r}" for family, fault in items)
    return lines


def _parse_replay(spec: str) -> tuple:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            "replay spec must be BASE_SEED:INDEX[:DIGEST12]"
        )
    return int(parts[0]), int(parts[1]), parts[2] if len(parts) == 3 else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: run the campaign, or replay+shrink one scenario."""
    parser = argparse.ArgumentParser(description="A17 chaos campaign")
    parser.add_argument(
        "--schedules",
        type=int,
        default=200,
        help="number of randomized composed schedules (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign base seed (default 0)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default 1 = serial; digest-identical)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="20-schedule smoke campaign (overrides --schedules)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the per-schedule outcome table as JSON",
    )
    parser.add_argument(
        "--replay",
        type=_parse_replay,
        default=None,
        metavar="SEED:INDEX[:DIGEST]",
        help=(
            "rerun one scenario from its failure report's replay line, "
            "then delta-debug its schedule to a minimal reproducer"
        ),
    )
    parser.add_argument(
        "--check-digests",
        action="store_true",
        help=(
            f"fail unless the campaign digest matches its pin in {DIGESTS_FILE} "
            "(the pin is the default campaign's: 200 schedules, seed 0)"
        ),
    )
    parser.add_argument(
        "--clock-windows",
        type=int,
        default=0,
        metavar="N",
        help=(
            "per-schedule cap on clock-fault windows (default 0 keeps "
            "the legacy campaign digest); replay lines from a clocked "
            "campaign carry this flag so --replay redraws identically"
        ),
    )
    args = parser.parse_args(argv)

    if args.replay is not None:
        base_seed, index, digest12 = args.replay
        cfg = CampaignConfig(
            schedules=max(index + 1, 1),
            base_seed=base_seed,
            max_clock_windows=args.clock_windows,
        )
        outcome = run_scenario(cfg, index)
        if digest12 is not None and not outcome.digest.startswith(digest12):
            print(
                f"digest mismatch: expected {digest12}, drew "
                f"{outcome.digest[:12]} — campaign knobs differ from the "
                "failing run"
            )
            return 1
        print(
            f"schedule #{index}: digest {outcome.digest[:12]}, "
            f"{outcome.submitted} submitted, {outcome.replies} replies, "
            f"{outcome.timeouts} timeouts, {outcome.sheds} sheds, "
            f"reply {outcome.reply_fraction:.3f}, "
            f"timely {outcome.timely_fraction:.3f}"
        )
        for violation in outcome.violations:
            print(f"  - {violation}")
        if outcome.failed:
            for line in _shrink_failure(cfg, index):
                print(line)
            return 1
        print("scenario is clean — nothing to shrink")
        return 0

    started = time.perf_counter()
    result = run_campaign(
        CampaignConfig(
            schedules=20 if args.quick else args.schedules,
            base_seed=args.seed,
            max_clock_windows=args.clock_windows,
        ),
        workers=args.workers,
    )
    report_lines = _summarize(result)
    mismatch = False
    if args.check_digests:
        pinned = json.loads(Path(DIGESTS_FILE).read_text()).get(EXPERIMENT.key)
        mismatch = result.digest != pinned
        if mismatch:
            report_lines.append(
                f"DIGEST MISMATCH {EXPERIMENT.key}: digest {result.digest} "
                f"!= pinned {pinned}"
            )
    print("\n".join(report_lines))

    rows = [
        (
            o.index,
            o.digest[:12],
            o.submitted,
            o.replies,
            o.timeouts,
            o.sheds,
            o.timely_fraction,
            len(o.violations),
        )
        for o in result.outcomes
        if o.failed
    ]
    if rows:
        print_table(
            "Failed schedules",
            [
                "index", "digest", "submitted", "replies",
                "timeouts", "sheds", "timely", "violations",
            ],
            rows,
        )
        for outcome in result.failures:
            print(f"\nminimizing schedule #{outcome.index} ...")
            for line in _shrink_failure(result.config, outcome.index):
                print(line)

    if args.json:
        payload = {
            "digest": result.digest,
            "workers": result.workers,
            "schedules": [
                {
                    "index": o.index,
                    "digest": o.digest,
                    "submitted": o.submitted,
                    "replies": o.replies,
                    "timeouts": o.timeouts,
                    "sheds": o.sheds,
                    "reply_fraction": o.reply_fraction,
                    "timely_fraction": o.timely_fraction,
                    "violations": list(o.violations),
                    "replay": o.replay,
                }
                for o in result.outcomes
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"[wrote {args.json}]")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write("### A17 chaos campaign\n```\n")
            handle.write("\n".join(report_lines))
            handle.write("\n```\n")
            if result.failures:
                handle.write(
                    "\n**Reproduce locally** (each replay redraws the "
                    "exact schedule, checks its digest, then ddmin-"
                    "shrinks it to a 1-minimal reproducer):\n```\n"
                )
                for outcome in result.failures:
                    handle.write(f"{outcome.replay}\n")
                handle.write("```\n")
    print(
        f"[A17 campaign: {time.perf_counter() - started:.1f}s "
        f"with {result.workers} worker(s)]"
    )
    return 1 if result.failures or mismatch else 0


EXPERIMENT = Command(key="A17", title="A17 chaos campaign", main=main)


if __name__ == "__main__":
    sys.exit(main())
