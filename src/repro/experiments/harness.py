"""Shared experiment machinery.

:func:`run_two_client_experiment` reproduces the paper's §6 setup — two
closed-loop clients against seven replicas, fifty requests each,
one-second think time; :func:`summary_metrics` is the per-run metric
mapping most point functions return; the rest are the averaging and
table-printing helpers of the registry runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.baselines import (
    AllReplicasPolicy,
    BestSinglePolicy,
    RandomPolicy,
    SingleFastestPolicy,
)
from ..core.qos import QoSSpec
from ..core.selection import DynamicSelectionPolicy, SelectionPolicy
from ..workload.client import ClientSummary, ClosedLoopClient
from ..workload.scenarios import Scenario, ScenarioConfig

__all__ = [
    "POLICIES",
    "make_policy",
    "TwoClientResult",
    "run_two_client_experiment",
    "run_clients",
    "pooled_metrics",
    "window_timeliness",
    "summary_metrics",
    "two_client_point",
    "average",
    "format_table",
    "print_table",
]


#: The selection policies the ablations compare, by table label
#: (``None``: the handler's default — the paper's dynamic policy).  The
#: hedge variants charge the scenario's 0.3 ms selection cost as ``δ``,
#: like the default, so a run is a pure function of its seed.
POLICIES: Dict[str, Optional[Callable[[], SelectionPolicy]]] = {
    "dynamic (paper)": None,
    "dynamic, no crash hedge": lambda: DynamicSelectionPolicy(
        crash_tolerance=0, fixed_overhead_ms=0.3
    ),
    "dynamic, 2-crash hedge": lambda: DynamicSelectionPolicy(
        crash_tolerance=2, fixed_overhead_ms=0.3
    ),
    "all-replicas": AllReplicasPolicy,
    "single-fastest": SingleFastestPolicy,
    "random-2 (load-blind)": lambda: RandomPolicy(redundancy=2),
    "best-single": BestSinglePolicy,
}


def make_policy(name: str) -> Optional[SelectionPolicy]:
    """A fresh instance of the policy labelled ``name`` in :data:`POLICIES`."""
    factory = POLICIES[name]
    return factory() if factory else None


@dataclass(frozen=True)
class TwoClientResult:
    """Outcome of one two-client run (the paper's unit of measurement)."""

    deadline_ms: float
    min_probability: float
    client2: ClientSummary
    client1: ClientSummary


def run_two_client_experiment(
    deadline_ms: float,
    min_probability: float,
    seed: int = 0,
    num_requests: int = 50,
    num_replicas: int = 7,
    window_size: int = 5,
    policy_factory: Optional[Callable[[], SelectionPolicy]] = None,
    config: Optional[ScenarioConfig] = None,
    audit_lifecycle: bool = True,
) -> TwoClientResult:
    """One run of the paper's §6 experiment.

    Client 1 always requests (deadline 200 ms, Pc ≥ 0); client 2 requests
    ``(deadline_ms, min_probability)``.  Both issue ``num_requests``
    requests with 1 s think time against ``num_replicas`` replicas whose
    service delay is Normal(100 ms, 50 ms).

    ``audit_lifecycle`` (default on) runs the drain-time
    :class:`~repro.faultinject.auditor.LifecycleAuditor` over the finished
    scenario, so every figure run doubles as a leak regression check.
    """
    if config is None:
        config = ScenarioConfig(
            seed=seed,
            num_replicas=num_replicas,
            window_size=window_size,
        )
    scenario = Scenario(config)
    service = config.service
    client1 = scenario.add_client(
        "client-1",
        QoSSpec(service, deadline_ms=200.0, min_probability=0.0),
        policy=policy_factory() if policy_factory else None,
        num_requests=num_requests,
    )
    client2 = scenario.add_client(
        "client-2",
        QoSSpec(service, deadline_ms=deadline_ms, min_probability=min_probability),
        policy=policy_factory() if policy_factory else None,
        num_requests=num_requests,
    )
    scenario.run_to_completion()
    if audit_lifecycle:
        scenario.audit_lifecycle()
    return TwoClientResult(
        deadline_ms=deadline_ms,
        min_probability=min_probability,
        client2=client2.summary(),
        client1=client1.summary(),
    )


def run_clients(
    config: ScenarioConfig,
    num_clients: int,
    deadline_ms: float,
    min_probability: float,
    num_requests: int,
    policy: str = "dynamic (paper)",
    crash_at_ms: Optional[float] = None,
    **client_kwargs: Any,
) -> Tuple[Scenario, List[ClosedLoopClient]]:
    """Run ``client-1..n`` closed-loop against a fresh scenario to completion.

    Every client gets the same QoS and its own instance of the policy
    labelled ``policy``; ``crash_at_ms`` crashes ``replica-1``
    (frequently the best) mid-run; ``client_kwargs`` go to
    :meth:`Scenario.add_client`.
    """
    scenario = Scenario(config)
    clients = [
        scenario.add_client(
            f"client-{index + 1}",
            QoSSpec(config.service, deadline_ms, min_probability),
            policy=make_policy(policy),
            num_requests=num_requests,
            **client_kwargs,
        )
        for index in range(num_clients)
    ]
    if crash_at_ms is not None:
        scenario.schedule_crash("replica-1", at_ms=crash_at_ms)
    scenario.run_to_completion()
    return scenario, clients


def pooled_metrics(summaries: Sequence[ClientSummary]) -> Dict[str, float]:
    """Several clients' run-level figures, request-weighted into one."""
    total = sum(s.requests for s in summaries)
    return {
        "failure_probability": sum(s.timing_failures for s in summaries) / total,
        "mean_redundancy": (
            sum(s.mean_redundancy * s.requests for s in summaries) / total
        ),
        "mean_response_ms": (
            sum(s.mean_response_ms * s.requests for s in summaries) / total
        ),
    }


def window_timeliness(
    outcomes: Sequence[Tuple[float, Any]], start_ms: float, end_ms: float
) -> Dict[str, float]:
    """Timely fractions of ``(t0, outcome)`` pairs: inside the window, and overall."""
    in_window = [v.timely for t0, v in outcomes if start_ms <= t0 < end_ms]
    overall = [v.timely for _t0, v in outcomes]
    return {
        "window_timely_fraction": sum(in_window) / max(len(in_window), 1),
        "overall_timely_fraction": sum(overall) / max(len(overall), 1),
    }


def summary_metrics(summary: ClientSummary) -> Dict[str, float]:
    """One client's run-level figures, as a point function returns them."""
    return {
        "failure_probability": summary.failure_probability,
        "timeout_fraction": (
            summary.timeouts / summary.requests if summary.requests else 0.0
        ),
        "mean_redundancy": summary.mean_redundancy,
        "mean_response_ms": summary.mean_response_ms,
    }


def two_client_point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """Sweep point: one §6 two-client run, reported for client 2.

    ``params`` are keyword arguments of :func:`run_two_client_experiment`
    minus ``seed``, which the runner supplies per task.
    """
    return summary_metrics(run_two_client_experiment(seed=seed, **params).client2)


def average(values: Sequence[float]) -> float:
    """Plain mean (raises on empty input, which is always a harness bug)."""
    if not values:
        raise ValueError("cannot average zero values")
    return sum(values) / len(values)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table (monospace, paper-style)."""
    columns = [
        [str(header)] + [_format_cell(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = "  ".join(
        str(headers[i]).ljust(widths[i]) for i in range(len(headers))
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                _format_cell(row[i]).ljust(widths[i]) for i in range(len(row))
            )
        )
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def print_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Print a titled table to stdout."""
    print()
    print(title)
    print("=" * len(title))
    print(format_table(headers, rows))
