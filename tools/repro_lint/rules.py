"""The nine repro-lint rules (RL001–RL009).

Each rule documents the invariant it guards and the sanctioned escape
hatch; the full catalog with rationale lives in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence

from .engine import Rule, Violation

__all__ = [
    "ALL_RULES",
    "RngDiscipline",
    "SimClockOnly",
    "FloatEquality",
    "LifecycleSingleWriter",
    "SlottedHotPath",
    "HostClockDiscipline",
    "PinnedSelectionOverhead",
    "DerivedPmfConstruction",
    "OrderedFanOut",
    "rule_by_id",
]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> fully dotted module/attribute it refers to."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _resolve(chain: str, aliases: Dict[str, str]) -> str:
    head, _, rest = chain.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def _in_repro(path: str) -> bool:
    return "/repro/" in path or path.startswith("repro/")


class RngDiscipline(Rule):
    """RL001 — all randomness flows through ``repro.rng`` named streams."""

    rule_id = "RL001"
    title = "no ad-hoc RNG construction or global random state"

    #: numpy.random members that are legitimate outside repro.rng: type
    #: names used in annotations and isinstance checks.  Everything else
    #: (default_rng, seed, RandomState, and every module-level draw
    #: function) either constructs an unmanaged stream or touches the
    #: hidden global one.
    SAFE_NUMPY_RANDOM = frozenset(
        {
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and "/rng/" not in path

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        aliases = _import_aliases(tree)
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random" or name.name.startswith("random."):
                        findings.append(
                            self.violation(
                                path,
                                node,
                                "stdlib `random` is banned; draw from a "
                                "named repro.rng stream instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    findings.append(
                        self.violation(
                            path,
                            node,
                            "stdlib `random` is banned; draw from a "
                            "named repro.rng stream instead",
                        )
                    )
                elif node.module in ("numpy.random", "np.random"):
                    for name in node.names:
                        if name.name not in self.SAFE_NUMPY_RANDOM:
                            findings.append(
                                self.violation(
                                    path,
                                    node,
                                    f"`numpy.random.{name.name}` is banned "
                                    "outside src/repro/rng/; use "
                                    "repro.rng named streams "
                                    "(seeded_generator for a bare seed)",
                                )
                            )
            elif isinstance(node, ast.Attribute):
                chain = _dotted_name(node)
                if chain is None:
                    continue
                resolved = _resolve(chain, aliases)
                match = re.fullmatch(r"numpy\.random\.(\w+)", resolved)
                if match and match.group(1) not in self.SAFE_NUMPY_RANDOM:
                    findings.append(
                        self.violation(
                            path,
                            node,
                            f"`numpy.random.{match.group(1)}` is banned "
                            "outside src/repro/rng/; use repro.rng named "
                            "streams (seeded_generator for a bare seed)",
                        )
                    )
        return findings


class SimClockOnly(Rule):
    """RL002 — simulation layers read time from the sim clock only."""

    rule_id = "RL002"
    title = "no wall-clock reads inside the simulation layers"

    SCOPES = ("/sim/", "/core/", "/gateway/", "/overload/", "/health/")

    #: Wall-clock reads.  ``time.perf_counter`` is deliberately exempt —
    #: it measures host CPU overhead (paper §5.3.3's delta); RL007 keeps
    #: that measurement out of simulated runs.
    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    BANNED_FROM_TIME = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns"}
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and any(scope in path for scope in self.SCOPES)

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        aliases = _import_aliases(tree)
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for name in node.names:
                        if name.name in self.BANNED_FROM_TIME:
                            findings.append(
                                self.violation(
                                    path,
                                    node,
                                    f"wall-clock `time.{name.name}` is "
                                    "banned here; use the sim clock "
                                    "(Simulator.now)",
                                )
                            )
            elif isinstance(node, ast.Attribute):
                chain = _dotted_name(node)
                if chain is None:
                    continue
                resolved = _resolve(chain, aliases)
                if resolved in self.BANNED:
                    findings.append(
                        self.violation(
                            path,
                            node,
                            f"wall-clock `{resolved}` is banned here; use "
                            "the sim clock (Simulator.now)",
                        )
                    )
        return findings


class FloatEquality(Rule):
    """RL003 — no bare float ``==``/``!=`` on pmf/time values."""

    rule_id = "RL003"
    title = "no exact float equality on pmf/time values"

    #: Identifier fragments marking a pmf/probability/grid value.
    VALUE_PATTERN = re.compile(
        r"pmf|bin_width|mass|cdf|quantile|probabilit|tolerance"
    )

    def applies_to(self, path: str) -> bool:
        # core/distribution.py owns the lattice, its tolerance constant
        # and the sanctioned exact comparisons.
        return _in_repro(path) and not path.endswith("core/distribution.py")

    def _suspicious(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        ident: Optional[str] = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is None:
            return False
        return bool(self.VALUE_PATTERN.search(ident)) or ident.endswith("_ms")

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._suspicious(left) or self._suspicious(right):
                    findings.append(
                        self.violation(
                            path,
                            node,
                            "bare float equality on a pmf/time value; "
                            "use math.isclose, DiscretePMF.allclose or "
                            "CDF_TOLERANCE from core/distribution.py",
                        )
                    )
                    break
        return findings


class LifecycleSingleWriter(Rule):
    """RL004 — lifecycle books are written only in ``engine/book.py``."""

    rule_id = "RL004"
    title = "lifecycle bookkeeping has a single writer"

    BOOKS = frozenset({"_requests", "_copy_of", "_probes"})
    #: The one module that defines (and may write) the books.
    OWNER = "/engine/book.py"
    MUTATORS = frozenset(
        {
            "add",
            "append",
            "clear",
            "discard",
            "extend",
            "insert",
            "pop",
            "popitem",
            "remove",
            "setdefault",
            "update",
        }
    )

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and not path.endswith(self.OWNER)

    def _is_book(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self.BOOKS

    def _book_target(self, node: ast.AST) -> bool:
        """Whether an assignment/delete target touches a book."""
        if self._is_book(node):
            return True
        if isinstance(node, ast.Subscript):
            return self._is_book(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._book_target(elt) for elt in node.elts)
        if isinstance(node, ast.Starred):
            return self._book_target(node.value)
        return False

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        findings: List[Violation] = []

        def flag(node: ast.AST, how: str) -> None:
            findings.append(
                self.violation(
                    path,
                    node,
                    f"{how} of lifecycle bookkeeping outside "
                    "engine/book.py (RequestBook) breaks the single-writer "
                    "invariant the LifecycleAuditor audits",
                )
            )

        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if any(self._book_target(t) for t in node.targets):
                    flag(node, "assignment")
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if node.target is not None and self._book_target(node.target):
                    flag(node, "assignment")
            elif isinstance(node, ast.Delete):
                if any(self._book_target(t) for t in node.targets):
                    flag(node, "deletion")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self.MUTATORS
                    and self._is_book(func.value)
                ):
                    flag(node, f"mutating call (.{func.attr})")
        return findings


class SlottedHotPath(Rule):
    """RL005 — hot-path dataclasses must declare ``slots=True``."""

    rule_id = "RL005"
    title = "hot-path dataclasses declare slots=True"

    HOT_FILES = ("net/message.py", "sim/events.py")

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and any(
            path.endswith(hot) for hot in self.HOT_FILES
        )

    @staticmethod
    def _dataclass_decorator(node: ast.expr) -> Optional[ast.expr]:
        """The decorator node if it is ``dataclass``/``dataclasses.dataclass``."""
        target = node.func if isinstance(node, ast.Call) else node
        name = _dotted_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return node
        return None

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                found = self._dataclass_decorator(decorator)
                if found is None:
                    continue
                slotted = isinstance(found, ast.Call) and any(
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in found.keywords
                )
                if not slotted:
                    findings.append(
                        self.violation(
                            path,
                            node,
                            f"dataclass `{node.name}` in a hot-path module "
                            "must declare slots=True",
                        )
                    )
        return findings


class HostClockDiscipline(Rule):
    """RL006 — host-level code stamps on its host clock, not the kernel.

    Gateway handlers model software running *on a host*: every
    timestamp they take must come from that host's virtual clock
    (``self.clock.now``), which the clock-fault plane can skew, step or
    freeze.  Reading ``sim.now`` directly silently re-synchronizes the
    host with the kernel and makes the handler immune to clock faults —
    precisely the bug class A18 exists to catch.  Physical processes
    (tracing, wire-level scheduling) read ``self.clock.kernel_now``,
    the sanctioned escape; scheduling (``sim.call_in``/``call_at``/
    ``timeout``) is untouched — only the ``.now`` read is host-visible.
    """

    rule_id = "RL006"
    title = "host-level timestamps come from the host clock"

    SCOPES = ("/gateway/handlers/",)

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and any(scope in path for scope in self.SCOPES)

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "now"):
                continue
            value = node.value
            base: Optional[str] = None
            if isinstance(value, ast.Attribute):
                base = value.attr
            elif isinstance(value, ast.Name):
                base = value.id
            if base == "sim":
                findings.append(
                    self.violation(
                        path,
                        node,
                        "kernel time `sim.now` leaks into host-level "
                        "code; stamp with the host clock "
                        "(`self.clock.now`, or `self.clock.kernel_now` "
                        "for physical/trace time)",
                    )
                )
        return findings


class PinnedSelectionOverhead(Rule):
    """RL007 — simulated runs pin the dynamic policy's overhead ``δ``.

    ``DynamicSelectionPolicy`` compensates the deadline by the *measured
    wall-clock* cost of its previous decision unless it is told
    otherwise, so an experiment that builds one bare lets host timing
    shift a simulated deadline and its sweep digest wobbles between
    runs.  Code that builds simulated runs must pass
    ``fixed_overhead_ms=`` (the deployment's selection charge) or
    ``compensate_overhead=False``.
    """

    rule_id = "RL007"
    title = "simulated runs pin the dynamic policy's overhead"

    SCOPES = ("/experiments/", "/workload/", "/faultinject/")

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and any(scope in path for scope in self.SCOPES)

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name is None or name.rpartition(".")[2] != "DynamicSelectionPolicy":
                continue
            pinned = any(
                keyword.arg is None  # **kwargs: cannot tell, trust it
                or keyword.arg == "fixed_overhead_ms"
                or (
                    keyword.arg == "compensate_overhead"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                )
                for keyword in node.keywords
            )
            if not pinned:
                findings.append(
                    self.violation(
                        path,
                        node,
                        "DynamicSelectionPolicy(...) without "
                        "`fixed_overhead_ms=` charges its measured "
                        "wall-clock overhead into simulated time; pass the "
                        "deployment's selection charge (or "
                        "`compensate_overhead=False`)",
                    )
                )
        return findings


class DerivedPmfConstruction(Rule):
    """RL008 — unvalidated pmf construction stays inside its module.

    ``DiscretePMF._derived`` builds a pmf without sorting, sign or mass
    checks.  That is sound only for its callers inside
    ``core/distribution.py``, which hand it arrays they computed
    themselves (values sorted, probabilities non-negative by
    construction).  Anywhere else an array is outside input and goes
    through ``DiscretePMF(...)`` / ``from_counts``, which check it.
    """

    rule_id = "RL008"
    title = "derived pmf construction is private to core/distribution.py"

    HOME = "core/distribution.py"

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and not path.endswith(self.HOME)

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        return [
            self.violation(
                path,
                node,
                "`_derived` skips every pmf check and is private to "
                "core/distribution.py; build pmfs from outside arrays "
                "with `DiscretePMF(...)` or `DiscretePMF.from_counts(...)`",
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_derived"
        ]


class OrderedFanOut(Rule):
    """RL009 — nothing is sent or scheduled in set-iteration order.

    A ``set`` of strings iterates in an order that depends on
    ``PYTHONHASHSEED``.  A loop over one that sends a message or arms a
    timer hands out ``msg_id``s and kernel sequence numbers (which break
    same-instant ties) in that order, so two runs of one seed differ —
    the bug ISSUE 21 fixed in the server's performance pushes.  Iterate
    ``sorted(...)``, or keep the members in an insertion-ordered dict.
    Only what the module itself shows to be a set is caught: a set
    literal or comprehension, a ``set(...)`` / ``frozenset(...)`` call,
    or a name / ``self.`` attribute it annotates ``Set[...]``.
    """

    rule_id = "RL009"
    title = "no sends or timers in set-iteration order"

    SCOPES = ("/gateway/", "/group/", "/net/", "/replica/", "/engine/")
    SET_TYPES = frozenset({"Set", "FrozenSet", "AbstractSet", "set", "frozenset"})
    #: Calls whose order is visible in msg_ids or kernel sequence numbers.
    EFFECTS = frozenset({"send", "multicast", "call_in", "call_at", "arm", "Message"})

    def applies_to(self, path: str) -> bool:
        return _in_repro(path) and any(scope in path for scope in self.SCOPES)

    @staticmethod
    def _variable(node: ast.AST) -> Optional[str]:
        """``x`` or ``self.x`` as a key, anything else ``None``."""
        name = _dotted_name(node)
        if name is not None and (name.count(".") == 0 or name.startswith("self.")):
            return name
        return None

    def _is_set_annotation(self, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        name = _dotted_name(annotation)
        return name is not None and name.rpartition(".")[2] in self.SET_TYPES

    def check(self, tree: ast.Module, path: str) -> List[Violation]:
        annotated = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and self._is_set_annotation(
                node.annotation
            ):
                annotated.add(self._variable(node.target))
            elif (
                isinstance(node, ast.arg)
                and node.annotation is not None
                and self._is_set_annotation(node.annotation)
            ):
                annotated.add(node.arg)
        findings: List[Violation] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            source = node.iter
            unordered = isinstance(source, (ast.Set, ast.SetComp)) or (
                isinstance(source, ast.Call)
                and _dotted_name(source.func) in ("set", "frozenset")
            )
            if not unordered:
                variable = self._variable(source)
                unordered = variable is not None and variable in annotated
            if not unordered:
                continue
            effect = next(
                (
                    name.rpartition(".")[2]
                    for statement in node.body
                    for call in ast.walk(statement)
                    if isinstance(call, ast.Call)
                    and (name := _dotted_name(call.func)) is not None
                    and name.rpartition(".")[2] in self.EFFECTS
                ),
                None,
            )
            if effect is not None:
                findings.append(
                    self.violation(
                        path,
                        node,
                        f"`{effect}(...)` inside a loop over a set: the "
                        "order depends on PYTHONHASHSEED and leaks into "
                        "msg_ids and same-instant event order; iterate "
                        "`sorted(...)` or keep an insertion-ordered dict",
                    )
                )
        return findings


ALL_RULES: Sequence[Rule] = (
    RngDiscipline(),
    SimClockOnly(),
    FloatEquality(),
    LifecycleSingleWriter(),
    SlottedHotPath(),
    HostClockDiscipline(),
    PinnedSelectionOverhead(),
    DerivedPmfConstruction(),
    OrderedFanOut(),
)


def rule_by_id(rule_id: str) -> Rule:
    """Look up a rule instance by its ``RLxxx`` id."""
    for rule in ALL_RULES:
        if rule.rule_id == rule_id:
            return rule
    raise KeyError(f"unknown rule id {rule_id!r}")
