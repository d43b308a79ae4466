"""The engine's import boundary: nothing that schedules, sends or tells
kernel time may be imported by any module under ``src/repro/engine/``."""

import ast
from pathlib import Path

import pytest

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "engine"
FORBIDDEN = (
    "repro.sim",
    "repro.net",
    "repro.group",
    "repro.gateway",
    "repro.orb.orb",
    "repro.orb.iiop",
    "repro.workload",
    "repro.faultinject",
)


def _imports(path: Path):
    """Absolute dotted names of everything ``path`` imports."""
    package = ["repro", "engine"]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


MODULES = sorted(ENGINE.glob("*.py"))


def test_the_engine_package_is_where_we_think_it_is():
    assert {"engine.py", "book.py", "admission.py", "models.py"} <= {
        path.name for path in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_engine_module_imports_nothing_that_schedules_or_sends(path):
    offending = sorted(
        name
        for name in _imports(path)
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    )
    assert offending == []


def test_the_walker_sees_relative_imports():
    names = set(_imports(ENGINE / "engine.py"))
    assert "repro.core.selection" in names and "repro.engine.book" in names
