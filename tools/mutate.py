"""Mutation runner: do the tests notice when the model's code changes?

For each module in :data:`TARGETS` the runner enumerates *mutants* — one
small change to the parsed source each:

* a comparison flipped (``<`` ↔ ``<=``, ``>`` ↔ ``>=``, ``==`` ↔ ``!=``,
  ``is`` ↔ ``is not``, ``in`` ↔ ``not in``);
* an arithmetic operator flipped (``+`` ↔ ``-``, ``*`` ↔ ``/``, ``//`` →
  ``/``, ``%`` → ``//``, ``**`` → ``*``, ``<<`` ↔ ``>>``, ``|`` ↔ ``&``,
  ``^`` → ``|``), in an expression or an augmented assignment;
* a boolean operator flipped (``and`` ↔ ``or``) or a ``not`` dropped;
* a constant flipped (``0`` ↔ ``1``, ``True`` ↔ ``False``, any other
  number ``n`` → ``n + 1``);
* a simple statement deleted (replaced by ``pass``).

Annotations, docstrings, f-strings, imports and ``__all__`` are left
alone, and so are the annotation-only keys of a ``TypedDict`` or
``Protocol`` body (deleting one changes nothing at run time; a dataclass
field is a mutant, since deleting it does).  Each mutant is written into
a fresh temporary copy of ``src/`` — the working tree is never edited —
and the module's test files run against it with ``-x``, a timeout and
derandomized hypothesis.  A mutant is *killed* when pytest fails (an
import error counts), *survived* when it passes, *timed out* when it
outlives the timeout.

Run from anywhere; it takes no options and writes ``BENCH_mutation.json``
at the repository root::

    python tools/mutate.py

The file it overwrites is the ratchet: the run exits non-zero, naming
each one, when it has a survivor the file does not list for that module.
A survivor is matched on its operator and the source text of its line,
so deleting tested code (fewer kills, no new survivor) passes, while a
mutant a test stops killing, or new code no test checks, fails.  A
module entry written before survivors carried their source text is held
to its ``survived`` count instead.

Format and reading of the output: docs/PERFORMANCE.md §5.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Module (relative to ``src/``) → the test files that own it.  Fast,
#: directed files first: ``-x`` stops at the first failure, so a killed
#: mutant pays only for the files before the one that kills it.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "repro/core/distribution.py": (
        "tests/core/test_distribution.py",
        "tests/core/test_pinned_bits.py",
        "tests/core/test_estimator.py",
        "tests/properties/test_distribution_oracle.py",
    ),
    "repro/core/estimator.py": (
        "tests/core/test_estimator.py",
        "tests/core/test_pinned_bits.py",
        "tests/gateway/test_timing_fault_client.py",
        "tests/integration/test_estimator_traffic.py",
        "tests/properties/test_estimator_walk.py",
    ),
    "repro/core/selection.py": (
        "tests/core/test_selection.py",
        "tests/core/test_probability_row.py",
        "tests/core/test_baselines.py",
        "tests/health/test_selection_health.py",
        "tests/properties/test_selection_properties.py",
        "tests/properties/test_governor_properties.py",
    ),
    "repro/engine/book.py": (
        "tests/engine/test_request_book.py",
        "tests/engine/test_boundary.py",
        "tests/gateway/test_timing_fault_client.py",
        "tests/gateway/test_retransmit.py",
        "tests/engine/test_engine_state_machine.py",
    ),
    "repro/core/repository.py": (
        "tests/core/test_repository.py",
        "tests/core/test_repository_extensions.py",
        "tests/core/test_estimator.py",
        "tests/properties/test_estimator_walk.py",
    ),
    "repro/health/state.py": (
        "tests/health/test_state_machine.py",
        "tests/engine/test_evidence_admission.py",
    ),
    "repro/overload/admission.py": (
        "tests/overload/test_admission.py",
        "tests/overload/test_handler_shed.py",
        "tests/overload/test_acceptance_a16.py",
    ),
    "repro/overload/governor.py": (
        "tests/overload/test_governor.py",
        "tests/properties/test_governor_properties.py",
        "tests/overload/test_handler_shed.py",
        "tests/overload/test_acceptance_a16.py",
    ),
    "repro/overload/load.py": (
        "tests/overload/test_load_tracker.py",
        "tests/overload/test_handler_shed.py",
        "tests/overload/test_overload_driver.py",
        "tests/overload/test_acceptance_a16.py",
    ),
    "repro/sim/kernel.py": (
        "tests/sim/test_kernel.py",
        "tests/sim/test_timer_entries.py",
        "tests/sim/test_events.py",
        "tests/sim/test_process.py",
        "tests/net/test_transport.py",
    ),
    "repro/gateway/handlers/timing_fault.py": (
        "tests/gateway/test_timing_fault_server.py",
        "tests/faults/test_crash_restart.py",
        "tests/gateway/test_timing_fault_client.py",
        "tests/gateway/test_extensions.py",
        "tests/gateway/test_retransmit.py",
        "tests/gateway/test_probe_staleness.py",
        "tests/gateway/test_outcome_record.py",
    ),
    "repro/engine/engine.py": (
        "tests/engine/test_request_book.py",
        "tests/engine/test_boundary.py",
        "tests/engine/test_config.py",
        "tests/engine/test_class_models.py",
        "tests/engine/test_evidence_admission.py",
        "tests/engine/test_engine_state_machine.py",
        "tests/gateway/test_timing_fault_client.py",
        "tests/gateway/test_extensions.py",
        "tests/gateway/test_retransmit.py",
        "tests/gateway/test_probe_staleness.py",
        "tests/gateway/test_outcome_record.py",
    ),
    "repro/analysis/calibration.py": ("tests/analysis/test_calibration.py",),
}

#: Mutants run side by side (each is one pytest process).
WORKERS = 2

#: Where the results go, relative to the repository root.
OUTPUT = "BENCH_mutation.json"

_COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_ARITHMETIC = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitOr: ast.BitAnd,
    ast.BitAnd: ast.BitOr, ast.BitXor: ast.BitOr,
}
_BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
_DELETABLE = (
    ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Break, ast.Continue,
)

# A pytest plugin loaded into every run: hypothesis draws the same
# examples each time, saves none between runs (a failing example of one
# mutant must not seed the next), does not shrink a failure (a kill needs
# no minimal example) and has no deadline or health check a busy host
# could trip.  A profile binds at decoration time, so it is loaded
# before the first test file that uses hypothesis is imported.
_PROFILE = '''\
def pytest_collect_file(file_path, parent):
    if file_path.suffix == ".py" and "hypothesis" in file_path.read_text():
        from hypothesis import HealthCheck, Phase, settings

        settings.register_profile(
            "mutation", derandomize=True, database=None, deadline=None,
            phases=[Phase.explicit, Phase.generate],
            suppress_health_check=list(HealthCheck),
        )
        settings.load_profile("mutation")
'''


@dataclass(frozen=True)
class Mutant:
    """One change: the ``index``-th node of ``ast.walk`` order, rewritten."""

    index: int
    line: int
    operator: str


def _flipped(value: object) -> object:
    if isinstance(value, bool):
        return not value
    if value == 0:
        return type(value)(1)
    if value == 1:
        return type(value)(0)
    return value + 1  # type: ignore[operator]


def _declares_only(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a ``TypedDict`` or ``Protocol``: its bare
    annotations declare keys, they execute nothing."""
    for base in node.bases:
        base = base.value if isinstance(base, ast.Subscript) else base
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name in ("TypedDict", "Protocol"):
            return True
    return False


def _exempt(tree: ast.AST) -> set:
    """Ids of nodes no mutant touches: annotations, docstrings, f-strings,
    imports, ``__all__`` and the keys a ``TypedDict`` or ``Protocol``
    declares."""
    roots: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _declares_only(node):
            roots += [line for line in node.body
                      if isinstance(line, ast.AnnAssign) and line.value is None]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots += [a.annotation for a in ast.walk(node.args)
                      if isinstance(a, ast.arg) and a.annotation]
            roots += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, (ast.JoinedStr, ast.Import, ast.ImportFrom)):
            roots.append(node)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            roots.append(node)  # a docstring
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            roots.append(node)
    return {id(n) for root in roots for n in ast.walk(root)}


def _sites(tree: ast.AST) -> Iterator[Tuple[int, ast.AST, str]]:
    """``(walk index, node, operator)`` of every mutation site, in order."""
    exempt = _exempt(tree)
    for index, node in enumerate(ast.walk(tree)):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Compare):
            for position, op in enumerate(node.ops):
                if type(op) in _COMPARE:
                    flip = _COMPARE[type(op)].__name__
                    yield index, node, f"{position}:{type(op).__name__}->{flip}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _ARITHMETIC:
            flip = _ARITHMETIC[type(node.op)].__name__
            yield index, node, f"{type(node.op).__name__}->{flip}"
        elif isinstance(node, ast.BoolOp):
            flip = _BOOLEAN[type(node.op)].__name__
            yield index, node, f"{type(node.op).__name__}->{flip}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield index, node, "drop not"
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, (bool, int, float)
        ):
            yield index, node, f"{node.value!r}->{_flipped(node.value)!r}"
        if isinstance(node, _DELETABLE):
            yield index, node, f"delete {type(node).__name__}"


def enumerate_mutants(source: str) -> List[Mutant]:
    """Every mutant of ``source``, in a fixed order."""
    return [
        Mutant(index, getattr(node, "lineno", 0), operator)
        for index, node, operator in _sites(ast.parse(source))
    ]


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with ``mutant`` applied."""
    tree = ast.parse(source)
    for index, node, operator in _sites(tree):
        if (index, operator) != (mutant.index, mutant.operator):
            continue
        if operator.startswith("delete "):
            for parent in ast.walk(tree):
                for field in ("body", "orelse", "finalbody"):
                    body = getattr(parent, field, None)
                    if isinstance(body, list) and node in body:
                        body[body.index(node)] = ast.copy_location(ast.Pass(), node)
        elif isinstance(node, ast.Compare):
            position = int(operator.split(":")[0])
            node.ops[position] = _COMPARE[type(node.ops[position])]()
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            node.op = _ARITHMETIC[type(node.op)]()
        elif isinstance(node, ast.BoolOp):
            node.op = _BOOLEAN[type(node.op)]()
        elif isinstance(node, ast.UnaryOp):
            return ast.unparse(_replace(tree, node, node.operand))
        else:
            assert isinstance(node, ast.Constant)
            node.value = _flipped(node.value)
        return ast.unparse(tree)
    raise LookupError(f"no site {mutant} in this source")


def _replace(tree: ast.AST, old: ast.AST, new: ast.AST) -> ast.AST:
    class Swap(ast.NodeTransformer):
        def generic_visit(self, node: ast.AST) -> ast.AST:
            return new if node is old else super().generic_visit(node)

    return Swap().visit(tree)


def _pytest(root: Path, src: Path, tests: Sequence[str], timeout: Optional[float]) -> str:
    """Run ``tests`` against the package tree ``src``: killed, survived or timed out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(src.parent)]))
    # No bytecode beside the sources, and only the plugins named below: a
    # third-party plugin's import would be paid once per mutant.
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "--no-header",
        "-p", "no:cacheprovider", "-p", "mutation_profile",
        "--confcutdir", str(root), *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=root, env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
    except subprocess.TimeoutExpired:
        return "timed_out"
    # Any failure counts, a conftest that no longer imports included: the
    # unmutated tree has passed the same command.
    return "survived" if done.returncode == 0 else "killed"


def _sandbox(root: Path) -> Path:
    """A temporary copy of ``root/src`` beside the hypothesis profile; returns
    the copy's ``src``."""
    scratch = Path(tempfile.mkdtemp(prefix="mutant-"))
    shutil.copytree(root / "src", scratch / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (scratch / "mutation_profile.py").write_text(_PROFILE)
    return scratch / "src"


def run_module(root: Path, module: str, tests: Sequence[str]) -> List[Tuple[Mutant, str]]:
    """Every mutant of ``root/src/module`` against ``tests``, with its outcome.

    The unmutated tree must pass first; its wall time sets the timeout.
    """
    source = (root / "src" / module).read_text()
    src = _sandbox(root)
    try:
        started = time.perf_counter()
        if _pytest(root, src, tests, None) != "survived":
            raise RuntimeError(f"{module}: {' '.join(tests)} fail unmutated")
        timeout = 3 * (time.perf_counter() - started) + 30
    finally:
        shutil.rmtree(src.parent)

    def one(mutant: Mutant) -> str:
        sandbox = _sandbox(root)
        try:
            (sandbox / module).write_text(mutate(source, mutant))
            return _pytest(root, sandbox, tests, timeout)
        finally:
            shutil.rmtree(sandbox.parent)

    mutants = enumerate_mutants(source)
    with ThreadPoolExecutor(WORKERS) as pool:
        return list(zip(mutants, pool.map(one, mutants)))


def summary(
    tests: Sequence[str], outcomes: Sequence[Tuple[Mutant, str]], source: str
) -> Dict[str, object]:
    """The ``BENCH_mutation.json`` entry of one module, whose text is ``source``."""
    counts = {kind: sum(o == kind for _, o in outcomes)
              for kind in ("killed", "survived", "timed_out")}
    lines = source.splitlines()
    return {
        "tests": list(tests),
        "mutants": len(outcomes),
        **counts,
        "kill_ratio": round(counts["killed"] / max(1, len(outcomes)), 4),
        "survivors": [
            {"line": m.line, "operator": m.operator, "source": lines[m.line - 1].strip()}
            for m, outcome in outcomes if outcome == "survived"
        ],
    }


def ratchet(committed: Dict[str, Dict], modules: Dict[str, Dict]) -> List[str]:
    """One line per survivor ``committed`` does not list for its module,
    matched on operator and source text (each listed one excuses one).

    A committed entry whose survivors carry no source text is held to its
    ``survived`` count; a module the committed file does not list has no
    floor yet.
    """
    fallen = []
    for module, entry in modules.items():
        if module not in committed:
            continue
        known = committed[module].get("survivors", [])
        if not all("source" in survivor for survivor in known):
            if entry["survived"] > committed[module]["survived"]:
                fallen.append(f"{module}: survived {entry['survived']}, "
                              f"committed {committed[module]['survived']}")
            continue
        excused = Counter((s["operator"], s["source"]) for s in known)
        for survivor in entry["survivors"]:
            key = (survivor["operator"], survivor["source"])
            if excused[key]:
                excused[key] -= 1
            else:
                fallen.append(f"{module}: new survivor {survivor['operator']} "
                              f"on line {survivor['line']}: {survivor['source']}")
    return fallen


def main() -> int:
    """Run every target, write :data:`OUTPUT` and hold it to the file it
    replaces: non-zero when a module has a survivor that file does not list."""
    output = ROOT / OUTPUT
    committed = json.loads(output.read_text())["modules"] if output.exists() else {}
    modules = {}
    for module, tests in TARGETS.items():
        started = time.perf_counter()
        source = (ROOT / "src" / module).read_text()
        modules[module] = summary(tests, run_module(ROOT, module, tests), source)
        modules[module]["seconds"] = round(time.perf_counter() - started, 1)
        print(f"{module}: {modules[module]['killed']}/{modules[module]['mutants']}"
              f" killed in {modules[module]['seconds']:.0f} s", flush=True)
    payload = {
        "benchmark": "mutation",
        "description": (
            "Mutants of each module (operator, constant and statement-deletion "
            "flips), how many its test files kill, and the module's wall "
            "seconds.  Written only by `python tools/mutate.py`."
        ),
        "modules": modules,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    fallen = ratchet(committed, modules)
    for line in fallen:
        print(f"mutation ratchet: {line}", file=sys.stderr)
    return 1 if fallen else 0


if __name__ == "__main__":
    sys.exit(main())
