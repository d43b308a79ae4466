"""One setting, two callers: no configuration field is set to one value only.

A field of a config class (a class in ``src/repro/`` named ``*Config`` or
``*Plan``, and ``Wiring``) or an ``__init__`` parameter of
``DynamicSelectionPolicy`` must receive at least two different values
from production code — ``src/`` and ``benchmarks/e2e/``; tests and
examples do not count.  A value is the source text of the argument; a
call that omits a field passes its default, unless it forwards another
caller's ``**options``.  Keywords of ``add_client`` / ``bind_client`` —
including the dicts a function builds and splats into one — and the keys
of a ``handler_kwargs`` dict are ``EngineConfig`` fields: that is how a
deployment configures a client.  A field with one production value is a
constant; the few kept anyway carry their reason here.

One use per parameter: every defaulted parameter of a public function,
public method or constructor in ``src/repro/`` must be passed by at least
one production call — by keyword, by position or through a ``*``/``**``
splat.  Calls are matched by callee name; a subclass's constructor call
counts for the ``__init__`` it inherits, and ``super().__init__(...)``
for the bases'.  A parameter no production call passes is a constant.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .conftest import REPO_ROOT, assert_allowed_exactly, parsed

ALLOWED = {
    ("EngineConfig", "violation_callback"): (
        "capability: the paper's QoS-violation callback (§5.4)"
    ),
    ("ScenarioConfig", "health_config"): (
        "capability: a health-enabled Scenario reports to its Proteus manager"
    ),
    ("ScenarioConfig", "method"): "deployment identity, like the service name",
}

#: Calls whose keywords are fields of the client's EngineConfig.
CLIENT_BINDERS = ("add_client", "bind_client")

Item = Tuple[str, str]


def _production() -> Iterator[Path]:
    yield from sorted((REPO_ROOT / "src").rglob("*.py"))
    for path in sorted((REPO_ROOT / "benchmarks" / "e2e").glob("*.py")):
        if not path.name.startswith("test_"):
            yield path


def _config_classes() -> Dict[str, Dict[str, Optional[str]]]:
    """Class name -> {field: default source, ``None`` when required}."""
    classes: Dict[str, Dict[str, Optional[str]]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in parsed(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name == "DynamicSelectionPolicy":
                (init,) = (
                    f for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name == "__init__"
                )
                params = init.args.args[1:]
                defaults: List[Optional[str]] = [None] * (
                    len(params) - len(init.args.defaults)
                )
                defaults += [ast.unparse(d) for d in init.args.defaults]
                classes[node.name] = {p.arg: d for p, d in zip(params, defaults)}
            elif node.name == "Wiring" or node.name.endswith(("Config", "Plan")):
                classes[node.name] = {
                    stmt.target.id: (
                        None if stmt.value is None else ast.unparse(stmt.value)
                    )
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                }
    return classes


def _key(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _bindings(tree: ast.AST) -> Dict[str, List[ast.AST]]:
    """Name -> every expression a file stores under it or into it.

    ``x = expr``; ``x["key"] = value`` and ``x.setdefault("key", value)``
    contribute a one-entry dict.
    """
    stored: Dict[str, List[ast.AST]] = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                stored[target.id].append(node.value)
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and _key(target.slice) is not None
            ):
                stored[target.value.id].append(
                    ast.Dict(keys=[target.slice], values=[node.value])
                )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setdefault"
            and isinstance(node.func.value, ast.Name)
            and len(node.args) == 2
        ):
            stored[node.func.value.id].append(
                ast.Dict(keys=[node.args[0]], values=[node.args[1]])
            )
    return stored


def _items(
    node: ast.AST, bindings: Dict[str, List[ast.AST]], seen: Set[str]
) -> Iterator[Item]:
    """``(key, value source)`` of every dict ``node`` builds or names."""
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            for key, value in zip(child.keys, child.values):
                if _key(key) is not None:
                    yield _key(key), ast.unparse(value)
        elif isinstance(child, ast.Call) and _callee(child) == "dict":
            for keyword in child.keywords:
                if keyword.arg is not None:
                    yield keyword.arg, ast.unparse(keyword.value)
        elif isinstance(child, ast.Name) and child.id not in seen:
            for stored in bindings.get(child.id, ()):
                yield from _items(stored, bindings, seen | {child.id})


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def production_values() -> Dict[Tuple[str, str], Set[str]]:
    """Every (class, field) -> the set of values production passes it."""
    classes = _config_classes()
    values: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
    for path in _production():
        tree = parsed(path)
        bindings = _bindings(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            passed: Dict[str, Set[str]] = defaultdict(set)
            forwards = False
            for keyword in call.keywords:
                if keyword.arg == "handler_kwargs":
                    for key, value in _items(keyword.value, bindings, set()):
                        values["EngineConfig", key].add(value)
                if keyword.arg is not None:
                    passed[keyword.arg].add(ast.unparse(keyword.value))
                    continue
                forwards |= not isinstance(keyword.value, (ast.Dict, ast.IfExp))
                for key, value in _items(keyword.value, bindings, set()):
                    passed[key].add(value)
            callee = _callee(call)
            if callee in CLIENT_BINDERS:
                target, omitted_is_default = "EngineConfig", False
            elif callee in classes:
                target, omitted_is_default = callee, not forwards
            else:
                continue
            for field, default in classes[target].items():
                if field in passed:
                    values[target, field] |= passed[field]
                elif omitted_is_default and default is not None:
                    values[target, field].add(default)
    return {
        (cls, field): values[cls, field]
        for cls, fields in classes.items()
        for field in fields
    }


def test_every_setting_has_two_production_values():
    one_valued = {
        knob for knob, seen in production_values().items() if len(seen) < 2
    }
    assert len(ALLOWED) <= 3
    assert one_valued == set(ALLOWED)


# -- every defaulted parameter is passed by production ---------------------------

#: Defaulted parameters no production call passes, each with its reason.
#: A key names a module, a function (``Owner.name``) or one parameter.
ALLOWED_PARAMETERS = {
    "select_replicas": "public API: the README's use without the simulator",
    "metrics/collector.py": "read by benchmarks/e2e; goes with ROADMAP item 3's PR",
    "metrics/stats.py": "reserved: ROADMAP item 1's confidence intervals",
    "Deployment.schedule_crash(recover_at_ms)": "examples/radar_tracking.py",
    "Simulator.__init__(start_time)": "test view: clock-order tests start off 0",
    "RNGManager.substream(repetition)": "derive_entity_seed's key axis, as the sweeps",
}


def _signatures() -> Iterator[Tuple[str, str, ast.FunctionDef, bool]]:
    """``(module, qualified name, def, bound)`` of every public function,
    public method and constructor in ``src/repro/``."""
    package = REPO_ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        module, tree = path.relative_to(package).as_posix(), parsed(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, node.name, node, False
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and (
                    node.name == "__init__" or not node.name.startswith("_")
                ):
                    bound = "staticmethod" not in map(ast.unparse, node.decorator_list)
                    yield module, f"{cls.name}.{node.name}", node, bound


def _defaulted(node: ast.FunctionDef, bound: bool) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, position or None)`` of each parameter with a default."""
    positional = (node.args.posonlyargs + node.args.args)[int(bound):]
    first = len(positional) - len(node.args.defaults)
    for position, arg in enumerate(positional[first:], first):
        yield arg.arg, position
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def unpassed_parameters() -> Set[Tuple[str, str, str]]:
    """``(module, "Owner.function", "Owner.function(param)")`` of every
    defaulted parameter of ``src/repro/`` that no production call passes."""
    calls: Dict[str, List[ast.Call]] = defaultdict(list)
    bases: Dict[str, List[str]] = {}
    inits: Dict[str, bool] = {}
    for path in _production():
        tree = parsed(path)
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                calls[_callee(call)].append(call)
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            bases[cls.name] = [ast.unparse(b).split(".")[-1] for b in cls.bases]
            inits[cls.name] = any(
                isinstance(f, ast.FunctionDef) and f.name == "__init__"
                for f in cls.body
            )
            for call in ast.walk(cls):  # super().__init__(...) calls the bases'
                if (
                    isinstance(call, ast.Call) and _callee(call) == "__init__"
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Call)
                    and _callee(call.func.value) == "super"
                ):
                    for base in bases[cls.name]:
                        calls[base].append(call)

    def callees(qualified: str) -> Iterator[str]:
        owner, _, name = qualified.rpartition(".")
        if name != "__init__":
            yield name
            return
        # The class, and every subclass that inherits this __init__.
        for cls in bases:
            chain = cls
            while chain != owner and not inits.get(chain, True) and bases[chain]:
                chain = bases[chain][0]
            if chain == owner:
                yield cls

    unpassed = set()
    for module, qualified, node, bound in _signatures():
        made = [call for callee in callees(qualified) for call in calls[callee]]
        for name, position in _defaulted(node, bound):
            if not any(
                any(k.arg in (name, None) for k in call.keywords)
                or position is not None and (
                    len(call.args) > position
                    or any(isinstance(a, ast.Starred) for a in call.args)
                )
                for call in made
            ):
                unpassed.add((module, qualified, f"{qualified}({name})"))
    return unpassed


def test_every_defaulted_parameter_is_passed_by_production():
    assert_allowed_exactly(unpassed_parameters(), ALLOWED_PARAMETERS, cap=8)
