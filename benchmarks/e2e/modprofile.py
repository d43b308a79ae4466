"""cProfile aggregated by layer, the cross-check for span self times.

A span's self time includes everything its layer calls that no wrapper
covers — builtins, numpy, and repo modules without a span of their own
(``sim.events`` under the kernel loop, ``rng.manager`` under whoever
draws).  To compare like with like, :func:`by_module` folds the own
time of every function outside the ``keep`` modules into its callers,
edge by edge, until it lands in a kept module.

What remains is method error: cProfile charges every Python call but
nothing inside native code, so it leans against call-heavy layers; the
spans charge their own wrapper cost to the caller.  ``--profile`` prints
the two side by side; README.md records where they disagree.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, Iterable, Tuple

__all__ = ["by_module"]

Function = Tuple[str, int, str]


def _module_of(function: Function) -> str:
    path = function[0].replace(os.sep, "/")
    if "/repro/" in path:
        relative = path.rsplit("/repro/", 1)[1]
        return relative[: -len(".py")].replace("/", ".")
    if "/benchmarks/e2e/" in path:
        return "driver"
    return "numpy" if "/numpy/" in path else "other"


def by_module(profiler: Any, keep: Iterable[str]) -> Dict[str, float]:
    """Own time (seconds) per ``keep`` module, the rest folded into callers."""
    stats: Dict[Function, tuple] = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    kept = set(keep)
    totals: Dict[str, float] = {}

    def charge(function: Function, seconds: float, depth: int) -> None:
        module = _module_of(function)
        callers = stats.get(function, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(edge[2] for edge in callers.values())
        if module in kept or not callers or weight <= 0.0 or depth > 8:
            totals[module] = totals.get(module, 0.0) + seconds
            return
        for caller, edge in callers.items():
            charge(caller, seconds * edge[2] / weight, depth + 1)

    for function, row in stats.items():
        charge(function, row[2], 0)
    return totals
