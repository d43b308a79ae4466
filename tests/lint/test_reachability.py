"""One caller per name: nothing public in ``src/repro/`` is reachable only from tests.

Every module-level class or function without a leading underscore must be
named in code (``tokenize`` NAME tokens, so docstrings, comments and
``__all__`` strings do not count) somewhere other than its own ``def``:
elsewhere in its module, or in another module of ``src/``, ``examples/``
or ``benchmarks/``.  A package ``__init__`` re-export is not a caller.
The few names kept without one carry their reason here.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

from .conftest import REPO_ROOT

ALLOWED = {
    "subset_timeliness_from_map": "reference: Equation 1 by replica name",
    "min_replicas_needed": "reference: closed form the selection properties check",
    "select_replicas": "public API: README",
    "mean_confidence_interval": "reserved: ROADMAP item 1",
    "proportion_confidence_interval": "reserved: ROADMAP item 1",
    "Uniform": "reserved: ROADMAP item 1",
    "Pareto": "reserved: ROADMAP item 1",
}


def _names(path: Path) -> Counter:
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text("utf-8")).readline)
    return Counter(t.string for t in tokens if t.type == tokenize.NAME)


def test_every_public_name_has_a_production_caller():
    corpus = {
        path: _names(path)
        for top in ("src", "examples", "benchmarks")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    }
    orphans = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            name = node.name
            if name.startswith("_") or corpus[path][name] > 1:
                continue
            if not any(
                name in names
                for other, names in corpus.items()
                if other != path and other.name != "__init__.py"
            ):
                orphans.add(name)
    assert len(ALLOWED) <= 7
    assert orphans == set(ALLOWED)
