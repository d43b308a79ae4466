"""Algorithm 1 — model-based dynamic replica selection (paper §5.3.2).

``select_replicas`` is a line-by-line transcription of the paper's
Algorithm 1: replicas are sorted by decreasing ``F_{R_i}(t)``; the
best replica ``m0`` is *always* part of the result but deliberately
excluded from the acceptance test, so the rest of the set alone satisfies
the client's probability.  Should any single member of the returned set
crash before responding, the survivors still meet the constraint
(Equation 3 of the paper).  If no such set exists, the complete replica
set ``M`` is returned.

:class:`DynamicSelectionPolicy` wraps the algorithm with the paper's two
operational details: the select-*all* bootstrap for replicas without
performance history (§5.4.1) and the online overhead compensation that
replaces ``t`` by ``t − δ`` (§5.3.3), with ``δ`` the most recently
measured execution time of the selection itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypedDict,
)

import numpy as np
import numpy.typing as npt

from .estimator import ResponseTimeEstimator
from .qos import QoSSpec

__all__ = [
    "ReplicaProbability",
    "ProbabilityRow",
    "SelectionResult",
    "select_replicas",
    "select_replicas_arrays",
    "GovernorMeta",
    "SelectionMeta",
    "HealthView",
    "SelectionContext",
    "SelectionDecision",
    "SelectionPolicy",
    "DynamicSelectionPolicy",
]


class HealthView(Protocol):
    """What selection needs from a health monitor (structural).

    :class:`repro.health.HealthMonitor` satisfies this; tests substitute
    trivial stubs.  Policies that honor a health view exclude quarantined
    replicas and scale ``F_{R_i}(t)`` by the trust discount.
    """

    def is_quarantined(self, name: str) -> bool:
        """Whether ``name`` must receive no client traffic at all."""
        ...

    def discount(self, name: str) -> float:
        """Trust multiplier in ``[0, 1]`` applied to ``F_{R_i}(t)``."""
        ...


class GovernorMeta(TypedDict):
    """The redundancy governor's annotation on a decision it touched."""

    load: float
    cap: int
    available: int
    engaged: bool


class SelectionMeta(TypedDict, total=False):
    """Diagnostics a policy attaches to its decision.

    At runtime this is a plain ``dict`` — policies keep building it with
    dict literals — but the closed key set lets the type checker reject
    typos at both the producer (``meta["botstrap"] = True``) and the
    consumer (``decision.meta.get("probabilties")``).  Every key is
    optional; absence means "not applicable to this decision".
    """

    #: Select-all first contact: no performance history yet (§5.4.1).
    bootstrap: bool
    #: Algorithm 1's Line 15 — no subset covered Pc, full set returned.
    fallback: bool
    #: The governor's cap trimmed the set below Algorithm 1's choice.
    capped: bool
    #: P_X(t) of the set excluding the protected best members.
    crash_safe_probability: float
    #: P_K(t) of the whole selected set.
    full_probability: float
    #: Deadline after §5.3.3 overhead compensation (t − δ).
    effective_deadline_ms: float
    #: Measured δ of this very decision, milliseconds.
    overhead_ms: float
    #: Per-replica F_{R_i}(t − δ) the decision was computed from (health
    #: discount applied), in replica order: a read-only mapping that owns
    #: its values, so no later decision or estimator write changes it
    #: (:class:`ProbabilityRow` from the dynamic policy).
    probabilities: Mapping[str, float]
    #: Replicas excluded from consideration by the health view.
    quarantined: Tuple[str, ...]
    #: Every replica was quarantined; traffic sent anyway (best effort).
    quarantine_override: bool
    #: Full preference order (retransmission handlers walk it).
    ranking: List[str]
    #: Primary replica of the passive-replication handler.
    primary: str
    #: QoS class the handler resolved for this request.
    request_class: str
    #: Load index at the moment the admission controller shed.
    shed_load: float
    #: Cap ladder details when a governor wrapped the decision.
    governor: GovernorMeta
    #: The membership view was empty; nothing could be selected.
    no_replicas: bool


@dataclass(frozen=True)
class ReplicaProbability:
    """A replica name with its estimated ``F_{R_i}(t)``."""

    name: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )


class ProbabilityRow(Mapping[str, float]):
    """A decision's ``F_{R_i}(t − δ)`` per replica, read as a ``dict``.

    ``index`` maps a replica name to its slot; it is shared by every
    decision :class:`DynamicSelectionPolicy` takes over the same replica
    list.  ``probs`` is this decision's own float64 array: the policy
    builds it fresh per decision and nothing writes it afterwards.  A read
    gives what ``dict(zip(replicas, probs.tolist()))`` would: the same
    floats bit for bit, in replica order, ``==`` to that dict and with its
    ``repr`` — for 8 bytes per replica instead of a dict entry and a boxed
    float on every kept request record.
    """

    __slots__ = ("_index", "_probs")

    def __init__(
        self, index: Dict[str, int], probs: npt.NDArray[np.float64]
    ) -> None:
        self._index = index
        self._probs = probs

    def __getitem__(self, name: str) -> float:
        return self._probs.item(self._index[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of running Algorithm 1.

    Attributes
    ----------
    selected:
        The chosen replica names, best (highest ``F``) first.
    crash_safe_probability:
        ``P_X(t)`` of the selected set *excluding* the protected best
        members — the probability guaranteed to survive the tolerated
        number of crashes.  0.0 when the fallback path was taken and even
        the full set cannot provide the guarantee.
    full_probability:
        ``P_K(t)`` of the whole selected set.
    used_fallback:
        ``True`` when no acceptable subset existed and the complete
        replica set was returned (Line 15 of Algorithm 1).
    capped:
        ``True`` when ``max_size`` trimmed the set below what Algorithm 1
        would have chosen — the probabilities then describe the trimmed
        set, which may sit below ``min_probability`` (the redundancy
        governor's graceful degradation under overload).
    """

    selected: Tuple[str, ...]
    crash_safe_probability: float
    full_probability: float
    used_fallback: bool
    capped: bool = False

    @property
    def redundancy(self) -> int:
        """Number of replicas the request will be sent to."""
        return len(self.selected)


def select_replicas(
    candidates: Sequence[ReplicaProbability],
    min_probability: float,
    crash_tolerance: int = 1,
    max_size: Optional[int] = None,
) -> SelectionResult:
    """Run Algorithm 1 over ``candidates``.

    Parameters
    ----------
    candidates:
        Replicas with their individual timeliness probabilities
        ``F_{R_i}(t)`` (the algorithm's input set ``V``).
    min_probability:
        The client's ``Pc(t)``.
    crash_tolerance:
        Number of simultaneous member crashes the returned set must
        absorb while still meeting ``min_probability``.  The paper's
        Algorithm 1 is the ``crash_tolerance=1`` case; ``0`` disables the
        always-include-the-best rule (pure probability cover), and higher
        values protect the ``k`` best members, following the extension the
        paper sketches at the end of §5.3.2.
    max_size:
        Redundancy cap imposed by the overload governor.  ``None`` (the
        default) runs the paper's unbounded algorithm.  A cap never
        shrinks the set below ``crash_tolerance + 1`` members (the
        protected best plus one survivor — the structural single-crash
        guarantee); when the cap bites, the result carries ``capped=True``
        and its probabilities describe the trimmed set.

    Notes
    -----
    Ties in probability are broken by replica name so selection is
    deterministic for a given input.
    """
    if not candidates:
        raise ValueError("select_replicas needs at least one candidate")
    names = np.array([c.name for c in candidates])
    probabilities = np.array([c.probability for c in candidates])
    return select_replicas_arrays(
        names,
        probabilities,
        min_probability,
        crash_tolerance=crash_tolerance,
        max_size=max_size,
    )


def select_replicas_arrays(
    names: npt.NDArray[np.str_],
    probabilities: npt.NDArray[np.float64],
    min_probability: float,
    crash_tolerance: int = 1,
    max_size: Optional[int] = None,
) -> SelectionResult:
    """Algorithm 1 straight over parallel ``(names, probabilities)`` arrays.

    The allocation-free fast path behind :func:`select_replicas`: at
    fleet scale (ISSUE 7 benchmarks 1024 replicas) building one
    :class:`ReplicaProbability` per candidate per request costs more
    than the algorithm itself, so callers that already hold arrays —
    the dynamic policy fed by the estimator's batch pass, the scale
    benchmark — skip the object layer entirely.  Semantics, validation
    and tie-breaking are identical to :func:`select_replicas`.
    """
    names = np.asarray(names)
    probabilities = np.asarray(probabilities, dtype=float)
    if names.size == 0:
        raise ValueError("select_replicas needs at least one candidate")
    # Written so that NaN (which fails every comparison) fails it too.
    if probabilities.size and not (
        probabilities.min() >= 0.0 and probabilities.max() <= 1.0
    ):
        raise ValueError("probabilities must be in [0, 1]")
    if not 0.0 <= min_probability <= 1.0:
        raise ValueError(
            f"min_probability must be in [0, 1], got {min_probability}"
        )
    if crash_tolerance < 0:
        raise ValueError(f"crash_tolerance must be >= 0, got {crash_tolerance}")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    total = int(names.size)

    # Line 3: sort in decreasing order of F_{R_i}(t); ties by name.  The
    # whole algorithm runs vectorized: one lexsort, one cumulative product
    # over the miss probabilities, one threshold search.
    order = np.lexsort((names, -probabilities))
    names = names[order]
    # Running product of (1 - F) in selection order; prefix k of it is the
    # miss probability of the k best replicas.
    complement = 1.0 - probabilities[order]
    miss = complement.cumprod()

    # Line 4 (generalized): always protect the best `crash_tolerance`
    # replicas; they join the result but not the acceptance test.
    protected_count = min(crash_tolerance, total)

    # Overload-governor cap, floored at the structural single-crash
    # guarantee (the protected best plus one survivor).
    cap = total
    if max_size is not None:
        floor = min(crash_tolerance + 1, total)
        cap = min(max(max_size, floor), total)

    # Lines 6-14: the candidate set X is the smallest prefix of the
    # remainder whose combined probability covers Pc.
    if protected_count:
        remainder_miss = complement[protected_count:].cumprod()
    else:
        remainder_miss = miss
    covered = 1.0 - remainder_miss
    hits = np.nonzero(covered >= min_probability)[0]
    if hits.size:
        cut = int(hits[0])
        selected_count = protected_count + cut + 1
        capped = selected_count > cap
        if capped:
            selected_count = cap
            cut = selected_count - protected_count - 1
        return SelectionResult(
            selected=tuple(names[:selected_count].tolist()),
            crash_safe_probability=float(covered[cut]),
            full_probability=1.0 - float(miss[selected_count - 1]),
            used_fallback=False,
            capped=capped,
        )

    # Line 15: no acceptable subset — return the complete set M (trimmed
    # to the governor's cap when one is in force).  No prefix of the
    # remainder covers Pc, so no set provides the guarantee.
    return SelectionResult(
        selected=tuple(names[:cap].tolist()),
        crash_safe_probability=0.0,
        full_probability=1.0 - float(miss[cap - 1]),
        used_fallback=True,
        capped=cap < total,
    )


# ---------------------------------------------------------------------------
# Policy layer: the pluggable interface the gateway handler drives.
# ---------------------------------------------------------------------------


@dataclass
class SelectionContext:
    """Everything a selection policy may consult for one request.

    Attributes
    ----------
    replicas:
        Live replicas of the service, per the current group view.
    estimator:
        Response-time estimator over the handler's repository.
    qos:
        The client's QoS specification.
    now_ms:
        Current simulated time.
    rng:
        Random generator for stochastic policies.
    distance:
        Optional static distance metric (for nearest-replica baselines).
    health:
        Optional health view (any :class:`HealthView`, e.g.
        :class:`repro.health.HealthMonitor`).  Policies that honor it
        exclude quarantined replicas and scale ``F_{R_i}(t)`` by the
        trust discount.
    max_redundancy:
        Optional redundancy cap set by the overload governor
        (:class:`repro.overload.GovernedSelectionPolicy`).  Policies that
        honor it never address more than this many replicas; Algorithm 1
        enforces it inside :func:`select_replicas` so the reported
        probabilities describe the capped set.
    """

    replicas: List[str]
    estimator: ResponseTimeEstimator
    qos: QoSSpec
    now_ms: float
    rng: np.random.Generator
    distance: Optional[Callable[[str], float]] = None
    health: Optional[HealthView] = None
    max_redundancy: Optional[int] = None


@dataclass(frozen=True)
class SelectionDecision:
    """A policy's verdict for one request."""

    selected: Tuple[str, ...]
    # Diagnostics: probabilities, fallback flags, overhead, ... — see
    # the SelectionMeta catalog for the closed key set.
    meta: SelectionMeta = field(default_factory=lambda: SelectionMeta())

    @property
    def redundancy(self) -> int:
        """Number of replicas addressed."""
        return len(self.selected)


class SelectionPolicy:
    """Interface implemented by every replica-selection strategy."""

    #: Short name used in experiment tables.
    name = "abstract"

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        """Choose the replicas that will service this request."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class DynamicSelectionPolicy(SelectionPolicy):
    """The paper's policy: probabilistic model + Algorithm 1.

    Parameters
    ----------
    crash_tolerance:
        Member crashes the selected set must absorb (paper: 1).
    compensate_overhead:
        When ``True`` (paper §5.3.3), selection evaluates
        ``F_{R_i}(t − δ)`` with ``δ`` the most recently *measured*
        execution time of this policy's own ``decide``.
    fixed_overhead_ms:
        Overrides the measured ``δ`` with a constant — useful for
        deterministic tests and for simulating slower selection hosts.
    """

    name = "dynamic"

    def __init__(
        self,
        crash_tolerance: int = 1,
        compensate_overhead: bool = True,
        fixed_overhead_ms: Optional[float] = None,
    ) -> None:
        if fixed_overhead_ms is not None and fixed_overhead_ms < 0:
            raise ValueError(
                f"fixed_overhead_ms must be >= 0, got {fixed_overhead_ms}"
            )
        self.crash_tolerance = int(crash_tolerance)
        self.compensate_overhead = bool(compensate_overhead)
        self.fixed_overhead_ms = fixed_overhead_ms
        #: δ from the previous execution, milliseconds (paper measures it
        #: "each time the selection algorithm is executed").
        self.last_overhead_ms = 0.0
        # The replica list last decided over, as the array Algorithm 1
        # sorts and as the name → slot index its ProbabilityRows share.
        self._named: Tuple[List[str], npt.NDArray[np.str_], Dict[str, int]] = (
            [], np.array([], dtype=str), {}
        )

    def decide(self, ctx: SelectionContext) -> SelectionDecision:
        started = time.perf_counter()

        # Health: quarantined replicas receive no client traffic.  Should *every* live replica be
        # quarantined, the guarantee is unattainable either way — keep
        # the full set (best effort) and flag the override so the handler
        # exempts this request from the no-traffic-to-quarantined audit.
        replicas = list(ctx.replicas)
        quarantined: Tuple[str, ...] = ()
        quarantine_override = False
        if ctx.health is not None and replicas:
            quarantined = tuple(
                r for r in replicas if ctx.health.is_quarantined(r)
            )
            if quarantined:
                excluded = set(quarantined)
                active = [r for r in replicas if r not in excluded]
                if active:
                    replicas = active
                else:
                    quarantine_override = True

        def annotate(meta: SelectionMeta) -> SelectionMeta:
            if quarantined:
                meta["quarantined"] = quarantined
                meta["quarantine_override"] = quarantine_override
            return meta

        # Bootstrap (paper §5.4.1): with no performance data for some
        # replica there is no model for it; the first access selects all
        # (non-quarantined) replicas so that every one starts publishing
        # updates.
        deadline = ctx.qos.deadline_ms
        if self.compensate_overhead:
            delta = (
                self.fixed_overhead_ms
                if self.fixed_overhead_ms is not None
                else self.last_overhead_ms
            )
            deadline = max(0.0, deadline - delta)
        # One batched pass over all replicas (requests that find every
        # row current cost a single vectorized compare).
        probabilities: Sequence[Optional[float]] = ()
        if replicas:
            probabilities = ctx.estimator.batch_probability_by(replicas, deadline)
        missing_history = None in probabilities

        cap = ctx.max_redundancy
        if missing_history or not replicas:
            selected = tuple(replicas)
            if cap is not None:
                # Even the select-all bootstrap respects the governor:
                # under pressure, seeding the model must not amplify load.
                selected = selected[: max(cap, 1)]
            self.last_overhead_ms = (time.perf_counter() - started) * 1000.0
            return SelectionDecision(
                selected=selected,
                meta=annotate({"bootstrap": True, "fallback": False}),
            )

        # Health-discounted F_{R_i}(t): suspected/probation replicas keep
        # competing, but with their probability scaled by the monitor's
        # trust discount.  From here down the decision stays in parallel
        # arrays — no per-replica ReplicaProbability objects on the hot
        # path (that allocation dominated at fleet scale; see
        # docs/PERFORMANCE.md §6).
        if replicas != self._named[0]:
            self._named = (
                replicas,
                np.asarray(replicas),
                {name: slot for slot, name in enumerate(replicas)},
            )
        _, names, index = self._named
        # A fresh array: the decision's record owns it.
        probs = np.array(probabilities, dtype=float)
        if ctx.health is not None:
            probs *= np.asarray(
                [ctx.health.discount(name) for name in replicas], dtype=float
            )

        result = select_replicas_arrays(
            names,
            probs,
            ctx.qos.min_probability,
            crash_tolerance=self.crash_tolerance,
            max_size=cap,
        )
        self.last_overhead_ms = (time.perf_counter() - started) * 1000.0
        return SelectionDecision(
            selected=result.selected,
            meta=annotate(
                {
                    "bootstrap": False,
                    "fallback": result.used_fallback,
                    "capped": result.capped,
                    "crash_safe_probability": result.crash_safe_probability,
                    "full_probability": result.full_probability,
                    "effective_deadline_ms": deadline,
                    "overhead_ms": self.last_overhead_ms,
                    "probabilities": ProbabilityRow(index, probs),
                }
            ),
        )
