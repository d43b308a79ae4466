"""One caller per name: nothing public in ``src/repro/`` is reachable only from tests.

Every module-level class or function, and every method or property of a
class, without a leading underscore must be named in code (``tokenize``
NAME tokens, so docstrings, comments and ``__all__`` strings do not
count; f-string fields do) more often than it is defined, over
``src/``, ``examples/`` and ``benchmarks/``: a ``def`` is not a caller,
and neither is a package ``__init__`` re-export.  The few names kept
without a caller carry their reason here.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

from .conftest import REPO_ROOT, assert_allowed_exactly, parsed

PACKAGE = REPO_ROOT / "src" / "repro"

ALLOWED = {
    "subset_timeliness_from_map": "reference: Equation 1 by replica name",
    "min_replicas_needed": "reference: closed form the selection properties check",
    "select_replicas": "public API: README",
    "mean_confidence_interval": "reserved: ROADMAP item 1",
    "proportion_confidence_interval": "reserved: ROADMAP item 1",
    "Uniform": "reserved: ROADMAP item 1",
    "Pareto": "reserved: ROADMAP item 1",
}

PREFIX = re.compile("[A-Za-z]*")

BENCHMARK = "read or wrapped by benchmarks/e2e; goes with ROADMAP item 3's benchmark PR"

#: Methods without a production caller.  A key names ``Class.method`` or a
#: module, which covers every method in it.
ALLOWED_METHODS = {
    "DiscretePMF.from_counts": BENCHMARK,
    "metrics/collector.py": BENCHMARK,
    "sim/trace.py": BENCHMARK,
    "Simulator.pending_live": "test view: the kernel's live-entry count",
    "HealthMonitor.record_for": "test view: a replica's whole health record",
    "FailureDetector.polls_fired": "test view: a fault-free run fires no poll",
    "FailureDetector.unwatch": "oracle axis: the lazy chain vs the polling loop",
}


def _names(path: Path) -> Counter:
    """NAME tokens of ``path``, those inside f-string fields included (code,
    which Python 3.12 tokenizes as NAMEs and 3.11 hides in one STRING)."""
    names: Counter = Counter()
    for token in tokenize.generate_tokens(io.StringIO(path.read_text("utf-8")).readline):
        if token.type == tokenize.NAME:
            names[token.string] += 1
        elif token.type == tokenize.STRING and "f" in PREFIX.match(token.string)[0].lower():
            for node in ast.walk(ast.parse(token.string, mode="eval")):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    names[node.id if isinstance(node, ast.Name) else node.attr] += 1
    return names


@functools.lru_cache(maxsize=None)
def _callers() -> Counter:
    """Name → how often the corpus names it beyond its own definitions."""
    callers: Counter = Counter()
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                callers.update(_names(path))
                callers.subtract(
                    node.name for node in ast.walk(parsed(path))
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                )
    return callers


def test_every_public_name_has_a_production_caller():
    orphans = {
        node.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in parsed(path).body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and not node.name.startswith("_") and _callers()[node.name] <= 0
    }
    assert len(ALLOWED) <= 7
    assert orphans == set(ALLOWED)


def test_every_public_method_has_a_production_caller():
    orphans = {
        (path.relative_to(PACKAGE).as_posix(), f"{cls.name}.{node.name}")
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls in ast.walk(parsed(path)) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_") and _callers()[node.name] <= 0
    }
    assert_allowed_exactly(orphans, ALLOWED_METHODS, cap=8)
