"""Nothing in ``repro`` traces: no module imports ``repro.sim.trace``.

A request's stamps (t0..t4) travel on its ``ReplyOutcome`` and the
transport keeps counters; the module stays only for the end-to-end
benchmark, which wraps ``Tracer.emit`` by name.  A ``Tracer`` parameter in
any layer would need this import, so the guard is on the import graph:
relative and absolute forms, and a ``repro.sim`` re-export, all count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from .conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "repro"
TRACE = "repro.sim.trace"
TRACE_NAMES = {"trace", "Tracer", "NullTracer", "TraceRecord"}


def _imports_trace(source: str, path: Path) -> bool:
    """Whether ``source``, living at ``path`` in the package, imports the tracer."""
    package = ("repro",) + path.relative_to(PACKAGE).parts[:-1]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == TRACE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(parts + tuple((node.module or "").split(".")))
            module = module.strip(".")
            if module == TRACE or (
                module == "repro.sim"
                and any(alias.name in TRACE_NAMES for alias in node.names)
            ):
                return True
    return False


def test_no_module_imports_the_tracer():
    importers = {
        path.relative_to(PACKAGE).as_posix()
        for path in sorted(PACKAGE.rglob("*.py"))
        if _imports_trace(path.read_text("utf-8"), path)
    }
    assert importers == set()


@pytest.mark.parametrize(
    "source",
    [
        "from ..sim.trace import Tracer\n",
        "from ..sim import NullTracer\n",
        "from .. import sim\nfrom ..sim import trace\n",
        "import repro.sim.trace\n",
        "from repro.sim.trace import TraceRecord\n",
    ],
)
def test_the_guard_sees_every_import_form(source):
    assert _imports_trace(source, PACKAGE / "engine" / "engine.py")


def test_the_guard_ignores_other_sim_imports():
    source = "from ..sim.kernel import Simulator\nfrom ..sim import HostClock\n"
    assert not _imports_trace(source, PACKAGE / "engine" / "engine.py")
