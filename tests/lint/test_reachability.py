"""One caller per name: nothing public in ``src/repro/`` is reachable only from tests.

Every module-level class or function, and every method or property of a
class, without a leading underscore must be named in code (``tokenize``
NAME tokens, so docstrings, comments and ``__all__`` strings do not
count; f-string fields do) more often than it is defined, over
``src/``, ``examples/`` and ``benchmarks/``: a ``def`` is not a caller,
nor is a use of the name inside a ``def`` of the same name (a same-name
delegation, ``def bind(...): self.inner.bind(...)``), nor a package
``__init__`` re-export.  The few names kept without a caller carry their
reason here.

One reader per attribute: every ``self.<attr>`` a class in ``src/repro/``
assigns is read somewhere in ``src/``, ``examples/``, ``benchmarks/`` or
``tests/``.  Assigning it, or calling a mutator on it (``append``,
``add``, ``update``, ...), is not a read.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Iterator, Tuple

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


def _uses(path: Path) -> Counter:
    """Name → how often ``path`` names it beyond its own definitions and
    the bodies of the functions of that name."""
    uses = _names(path)
    for node in ast.walk(parsed(path)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            uses[node.name] -= 1
        if isinstance(node, ast.FunctionDef):
            uses[node.name] -= sum(
                1
                for stmt in node.body for inner in ast.walk(stmt)
                if getattr(inner, "id", getattr(inner, "attr", None)) == node.name
            )
    return uses


@functools.lru_cache(maxsize=None)
def _callers() -> Counter:
    """Name → how often the corpus names it beyond its own definitions."""
    callers: Counter = Counter()
    for top in ("src", "examples", "benchmarks"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                callers.update(_uses(path))
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


def test_a_same_name_delegation_is_not_a_caller(tmp_path):
    path = tmp_path / "wrapper.py"
    path.write_text(
        "class Wrapper:\n"
        "    def bind(self, host):\n"
        "        self.inner.bind(host)\n"
        "        return f'{self.inner.bind}'\n"
        "\n"
        "    def send(self, message):\n"
        "        self.inner.send(message)\n"
        "\n"
        "    def flush(self):\n"
        "        self.send(None)\n",
        "utf-8",
    )
    uses = _uses(path)
    assert uses["bind"] == 0
    assert uses["send"] == 1  # flush's call, not send's own delegation


# -- every assigned attribute is read -------------------------------------------

#: Attributes assigned and never read, each with its reason.
ALLOWED_STATE: dict = {}

#: Calls that change their receiver; calling one is not a read of it.
MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "add", "update", "discard", "remove", "clear",
})


def _assigned(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(class, attr)`` of every ``self.<attr>`` a method of a class stores."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield cls.name, node.attr


def _reads(tree: ast.Module) -> Iterator[str]:
    """Attribute names ``tree`` loads, other than as a mutator's receiver or
    the container of a subscript store."""
    written = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            written.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            written.add(id(node.value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in written
        ):
            yield node.attr


def test_every_assigned_attribute_is_read():
    read = {
        name
        for top in ("src", "examples", "benchmarks", "tests")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        for name in _reads(parsed(path))
    }
    write_only = {
        (path.relative_to(PACKAGE).as_posix(), f"{cls}.{attr}")
        for path in sorted(PACKAGE.rglob("*.py"))
        for cls, attr in _assigned(parsed(path))
        if attr not in read
    }
    assert_allowed_exactly(write_only, ALLOWED_STATE, cap=0)
