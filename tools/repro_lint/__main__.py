"""CLI entry point: ``python -m repro_lint [paths...]``.

Exits 0 when every checked file is clean, 1 on violations or parse
errors, 2 on usage errors.  ``--list-rules`` prints the catalog.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .engine import run_paths
from .rules import ALL_RULES, rule_by_id


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the lint pack over the given paths (default: ``src``)."""
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description="repro's determinism/lifecycle lint pack (RL001-RL009)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rules: List = list(ALL_RULES)
    if args.select:
        try:
            rules = [
                rule_by_id(rule_id.strip())
                for rule_id in args.select.split(",")
                if rule_id.strip()
            ]
        except KeyError as exc:
            print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
            return 2

    report = run_paths(args.paths, rules)
    for violation in report.violations:
        print(violation.render())
    for error in report.parse_errors:
        print(f"repro-lint: parse error: {error}", file=sys.stderr)
    if report.files_checked == 0 and not report.parse_errors:
        print("repro-lint: no Python files found", file=sys.stderr)
        return 2
    summary = (
        f"repro-lint: {report.files_checked} file(s), "
        f"{len(report.violations)} violation(s)"
    )
    print(summary, file=sys.stderr)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
