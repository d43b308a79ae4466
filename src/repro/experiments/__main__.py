"""``python -m repro.experiments`` — the one command line over the registry.

``KEY…`` runs the named entries, ``--all`` every registered one in
presentation order, ``--list`` prints the registry.  ``--quick`` runs
each sweep's declared smoke grid, ``--workers N`` fans sweeps across N
processes (tables and digests are bit-identical for any N), ``--json
FILE`` / ``--csv DIR`` export the rows, and ``--check-digests`` compares
every full-grid sweep digest, and the A17 campaign's, with
``experiments_digests.json`` (an entry without its pin fails) and runs
each sweep's own row check (A16's capacity bound).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import MODULES, load
from .export import export_rows
from .harness import format_table
from .registry import DIGESTS_FILE, Command, print_tables, run


def list_table() -> str:
    """The registry as a text table (mirrored in EXPERIMENTS.md)."""
    return format_table(
        ["key", "experiment", "module"],
        [
            (key, load(key).title, f"repro.experiments.{module}")
            for key, module in MODULES.items()
        ],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the selected experiments; non-zero on failure or digest mismatch."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run registered experiments (see --list).",
    )
    parser.add_argument("keys", nargs="*", metavar="KEY", help="registry keys to run")
    parser.add_argument("--all", action="store_true", help="run every entry")
    parser.add_argument("--list", action="store_true", help="print the registry")
    parser.add_argument(
        "--quick", action="store_true", help="reduced smoke sweeps"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default 1 = serial; results are bit-identical)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help=(
            "write every selected sweep's rows and digest as JSON (a lone "
            "command entry writes its own payload there: A17 its outcome "
            "table, fig3 BENCH_estimator.json, scale BENCH_scale.json)"
        ),
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="write one <KEY>.csv of rows per selected sweep"
    )
    parser.add_argument(
        "--check-digests",
        action="store_true",
        help=(
            f"fail unless full-grid digests match {DIGESTS_FILE} and every "
            "sweep's row check holds"
        ),
    )
    args, extra = parser.parse_known_args(argv)

    if args.list:
        print(list_table())
        return 0
    keys = list(MODULES) if args.all else args.keys
    unknown = [key for key in keys if key not in MODULES]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown} (see --list)")
    if not keys:
        parser.error("give KEY, --all or --list")
    if extra and not (len(keys) == 1 and isinstance(load(keys[0]), Command)):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.check_digests and args.quick:
        parser.error("--check-digests needs the full grids, not --quick")

    shared = ["--quick"] * args.quick + ["--workers", str(args.workers)]
    shared += ["--check-digests"] * args.check_digests
    if args.json and len(keys) == 1:
        shared += ["--json", args.json]
    exported: Dict[str, dict] = {}
    mismatches: List[str] = []
    broken: List[str] = []
    status = 0
    started_all = time.perf_counter()
    pinned = (
        json.loads(Path(DIGESTS_FILE).read_text()) if args.check_digests else {}
    )
    for key in keys:
        entry = load(key)
        print(f"\n### {entry.title} — python -m repro.experiments {key}")
        started = time.perf_counter()
        if isinstance(entry, Command):
            status = max(status, entry.main(shared + extra))
            print(f"[{entry.title}: {time.perf_counter() - started:.1f}s]")
            continue
        result = run(
            entry,
            grid=entry.quick_grid if args.quick else None,
            seeds=entry.quick_seeds if args.quick else None,
            workers=args.workers,
        )
        print_tables(entry, result.rows)
        print(
            f"[{entry.title}: {time.perf_counter() - started:.1f}s, "
            f"{result.workers} worker(s), digest {result.digest[:16]}]"
        )
        exported[key] = {
            "title": entry.title,
            "digest": result.digest,
            "points": result.rows,
        }
        if args.csv:
            print(f"wrote {export_rows(Path(args.csv), key, result.rows)}")
        if args.check_digests and pinned.get(key) != result.digest:
            mismatches.append(
                f"{key}: digest {result.digest} != pinned {pinned.get(key)}"
            )
        if args.check_digests and entry.check is not None:
            broken += [f"{key}: {line}" for line in entry.check(result.rows)]
    if len(keys) > 1:
        print(
            f"\nAll experiments done in {time.perf_counter() - started_all:.1f}s."
        )
    if args.json and exported:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(exported, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    for line in mismatches:
        print(f"DIGEST MISMATCH {line}")
    for line in broken:
        print(f"ROW CHECK FAILED {line}")
    return 1 if mismatches or broken else status


if __name__ == "__main__":
    sys.exit(main())
