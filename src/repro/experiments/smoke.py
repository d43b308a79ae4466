"""The parallel engine's digest smoke (the CI self-check).

Two §6 two-client points, small enough for a sub-minute CI job yet
exercising the full scenario stack, run serially and fanned across
worker processes; the merged digests must be bit-identical (the
1-vs-N contract of docs/REPRODUCIBILITY.md).
"""

from __future__ import annotations

import os
import sys
from typing import Sequence

from .harness import two_client_point
from .parallel import SweepResult, run_sweep
from .registry import Command, flag_value

__all__ = ["SMOKE_POINTS", "main", "EXPERIMENT"]

SMOKE_POINTS = (
    {
        "deadline_ms": 140.0,
        "min_probability": 0.9,
        "num_requests": 6,
        "num_replicas": 3,
    },
    {
        "deadline_ms": 160.0,
        "min_probability": 0.5,
        "num_requests": 6,
        "num_replicas": 3,
    },
)


def _smoke_sweep(workers: int) -> SweepResult:
    """The tiny built-in sweep the CI digest check runs at a worker count."""
    return run_sweep(
        two_client_point,
        SMOKE_POINTS,
        repetitions=2,
        base_seed=2001,
        workers=workers,
        stream_name="smoke",
    )


def main(argv: Sequence[str] = ()) -> int:
    """Digest smoke: serial vs ``--workers N`` (at least 2) must be bit-identical."""
    if "--json" in argv:
        print("smoke: --json is not supported (the smoke has no rows)", file=sys.stderr)
        return 2
    workers = max(2, int(flag_value(argv, "--workers", 2)))
    serial = _smoke_sweep(workers=1)
    parallel = _smoke_sweep(workers=workers)
    lines = [
        f"serial   ({serial.workers} worker):  digest {serial.digest()}",
        f"parallel ({parallel.workers} workers): digest {parallel.digest()}",
    ]
    ok = serial.digest() == parallel.digest()
    lines.append(
        "digests match — 1-vs-N invariance holds"
        if ok
        else "DIGEST MISMATCH — parallel merge is not deterministic"
    )
    report = "\n".join(lines)
    print(report)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write("### Parallel sweep digest smoke\n```\n")
            handle.write(report)
            handle.write("\n```\n")
    return 0 if ok else 1


EXPERIMENT = Command(key="smoke", title="Parallel sweep digest smoke", main=main)
