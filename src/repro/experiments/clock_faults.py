"""Ablation A18 — clock faults: skew-tolerant vs absolute-timestamp estimation.

A five-replica deployment serves an open-loop Poisson workload (~48 %
fleet utilization when traffic spreads) while the clock plane
de-synchronizes the fleet: ``s-1``'s clock is stepped 10 s into the
future and then frozen (so it reports far-future absolute stamps and
zero durations), ``s-2``/``s-3`` drift at ±500 ppm, and ``s-4`` takes
an NTP-style ±200 ms step mid-window.  No service time actually
changes — every fault is in the *measurement* plane.

Three variants expose where the damage comes from:

* **naive** — an implementation that assumes synchronized clocks: it
  computes the gateway delay from the replica's absolute reply stamp and
  sanitizes impossible durations instead of rejecting the clock behind
  them (negatives clamped to zero, implausibly large ones discarded as
  outliers).  The frozen replica reports zero queue/service time and a
  far-future send stamp, so the naive estimator predicts R ≈ 0 for it,
  routes *everything* to it, and never learns better (even the
  queue-scaled extension is blind here: scaling a zero-valued delay pmf
  by the real queue depth still predicts zero): under the open-loop
  load the replica's FIFO queue grows without bound and the in-window
  timely fraction collapses.
* **same-clock** — the repository's estimation discipline (every trusted
  interval measured on the gateway's own clock; incoherent reports
  rejected) without the health subsystem.  Rejection alone is not
  enough: a rejected sample also carries the replica's honest queue
  report, so refusing every report from the frozen replica *starves*
  the model of the one signal that would steer traffic away — the
  variant avoids the collapse but keeps paying for mid-window detours
  onto the frozen replica.
* **tolerant** — same-clock estimation plus the clock-sanity health
  signal: incoherent reports accumulate into a quarantine (reason
  ``"clock_fault"``), so the replica whose *measurements* cannot be
  trusted is removed outright instead of being endlessly re-sampled,
  and probation re-admits it once its clock is resynced.

Drift at ±500 ppm stays inside the coherence slack and is tolerated by
every same-clock variant; only replicas with a real clock fault (the
frozen ``s-1`` persistently, the stepped ``s-4`` occasionally) ever
draw a ``"clock_fault"`` quarantine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.estimator import QueueScaledEstimator
from ..core.selection import DynamicSelectionPolicy
from ..faultinject import ClockFault, FaultSchedule
from ..engine import EvidenceAdmission, PerformanceUpdate
from ..gateway.handlers.timing_fault import TimingFaultClientHandler
from ..health import HealthConfig, HealthState
from ..sim.random import Constant
from ..workload.ministack import MiniStack
from .harness import window_timeliness
from .registry import Experiment, Table, cartesian

__all__ = [
    "NaiveAbsoluteTimestampClient",
    "clock_fault_schedule",
    "build_stack",
    "drive",
    "grid",
    "point",
    "EXPERIMENT",
]

REPLICAS = tuple(f"s-{i + 1}" for i in range(5))
WINDOW_START, WINDOW_END = 500.0, 2500.0
DEADLINE_MS = 100.0
SERVICE_MS = 8.0
#: Open-loop arrival gap: ~0.3 req/ms over five 8 ms servers is a 48 %
#: fleet utilization — comfortable when traffic spreads, hopeless
#: (utilization 2.4) when a naive estimator funnels it onto one replica.
INTERARRIVAL_MS = 3.3

#: The three comparison rows, in table order.
VARIANTS = ("naive", "same-clock", "tolerant")


class _NaiveAdmission(EvidenceAdmission):
    """Evidence admission that assumes synchronized clocks."""

    #: Reports above this are discarded as "obvious outliers" — the
    #: sanitizer that looks responsible and is exactly what blinds the
    #: naive stack to the step it should have been alarmed by.
    OUTLIER_MS = 1_000.0

    def admit(self, perf: PerformanceUpdate) -> Optional[PerformanceUpdate]:
        if (
            perf.service_time_ms > self.OUTLIER_MS
            or perf.queue_delay_ms > self.OUTLIER_MS
        ):
            return None
        if perf.service_time_ms < 0.0 or perf.queue_delay_ms < 0.0:
            return perf._replace(
                service_time_ms=max(perf.service_time_ms, 0.0),
                queue_delay_ms=max(perf.queue_delay_ms, 0.0),
            )
        return perf

    def coherent(self, perf: PerformanceUpdate, t1: float, t4: float) -> bool:
        return True

    def gateway_delay(self, perf: PerformanceUpdate, t1: float, t4: float) -> float:
        # Cross-clock: the reply leg by the replica's own send stamp.  A
        # stepped/frozen replica clock makes this wildly wrong, and the
        # repository's non-negativity clamp turns "wrong" into "zero" —
        # the estimator then predicts an instant replica forever.
        return max(0.0, t4 - perf.sent_at_ms)


class NaiveAbsoluteTimestampClient(TimingFaultClientHandler):
    """The A18 baseline: trusts replica-reported absolute timestamps.

    Three classic synchronized-clock assumptions, each a one-method
    departure from the tolerant evidence admission:

    * the gateway delay is derived from the replica's absolute reply
      stamp (``t4 − sent_at``) — a cross-clock subtraction;
    * physically impossible durations are *sanitized* instead of
      rejected — negatives clamped to zero, implausibly large ones
      dropped as outliers — so a faulty clock's flattering reports
      still enter the windows while its one honest-looking giant
      sample (the duration straddling the 10 s step) is thrown away;
    * no coherence check at all — every surviving report is taken at
      face value.
    """

    evidence_cls = _NaiveAdmission


def clock_fault_schedule() -> FaultSchedule:
    """The A18 clock-fault windows (pure measurement-plane faults).

    ``s-1`` is stepped 10 s ahead and then frozen for the whole window:
    every duration it reports reads as zero and its reply stamps sit far
    in the future — the estimator's most seductive lie, because a frozen
    replica looks *instant*, so a trusting client keeps funneling
    traffic onto its silently growing queue.  ``s-2``/``s-3`` drift
    apart at ±500 ppm; ``s-4`` takes a 200 ms step for the middle of the
    window (its resync at 2000 ms also exercises the backwards-step →
    negative-duration rejection path).
    """
    return FaultSchedule(
        clocks=(
            ClockFault(
                host=REPLICAS[0], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="step", step_ms=10_000.0,
            ),
            ClockFault(
                host=REPLICAS[0], start_ms=WINDOW_START + 1.0,
                end_ms=WINDOW_END, kind="freeze",
            ),
            ClockFault(
                host=REPLICAS[1], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="drift", drift_ppm=500.0,
            ),
            ClockFault(
                host=REPLICAS[2], start_ms=WINDOW_START, end_ms=WINDOW_END,
                kind="drift", drift_ppm=-500.0,
            ),
            ClockFault(
                host=REPLICAS[3], start_ms=1000.0, end_ms=2000.0,
                kind="step", step_ms=200.0,
            ),
        )
    )


def _health_config(variant: str) -> Optional[HealthConfig]:
    if variant == "naive" or variant == "same-clock":
        return None
    return HealthConfig(
        backoff_initial_ms=400.0,
        adaptive_timeout_quantile=None,
        clock_anomaly_after=3,
        # On this jitter-free LAN the probed round trip is a tight
        # baseline, so a 3x ceiling catches a frozen clock's zero-duration
        # reports from the very first reply (before they can poison the
        # sliding windows).
        clock_deflation_factor=3.0,
    )


def build_stack(seed: int, variant: str) -> MiniStack:
    """The five-replica deployment of ``variant`` with the clock faults armed."""
    stack = MiniStack(seed=seed)
    for host in REPLICAS:
        stack.add_server(host, service_time=Constant(SERVICE_MS))
    health = _health_config(variant)
    stack.add_client(
        "client-1",
        deadline_ms=DEADLINE_MS,
        min_probability=0.9,
        handler_cls=(
            NaiveAbsoluteTimestampClient
            if variant == "naive"
            else TimingFaultClientHandler
        ),
        # fixed_overhead_ms pins the §5.3.3 deadline compensation: the
        # default measures the previous decision's wall-clock cost, and
        # letting host timing noise shift the effective deadline makes
        # the run irreproducible bit-for-bit.
        policy=DynamicSelectionPolicy(crash_tolerance=0, fixed_overhead_ms=0.0),
        # Queue-scaled F keeps the open-loop load spread across the
        # fleet (A16's governed idiom); the naive variant gets the same
        # estimator, so its collapse is purely the clock-trust bug.
        estimator_factory=QueueScaledEstimator,
        response_timeout_factor=3.0,
        probe_interval_ms=200.0,
        # Staleness probes keep every variant's honest signals (probed
        # RTT, live queue length) fresh even for an avoided replica, so
        # nobody wins by accident of a stale record: the naive stack
        # re-admits the frozen replica on the strength of its zeroed
        # duration pmf — which also nullifies the queue scaling — while
        # the coherent stacks keep their pre-fault model of it.
        probe_staleness_ms=100.0,
        bootstrap_probes=True,
        **({"health_config": health} if health is not None else {}),
    )
    stack.faults.apply(clock_fault_schedule())
    return stack


def drive(stack: MiniStack, num_requests: int) -> List[Tuple[float, Any]]:
    """Run the open-loop Poisson load; ``(t0, outcome)`` per completed request.

    Requests keep arriving whether or not earlier ones returned, so a
    selection policy that funnels everything onto one
    (measurement-faulty) replica builds a genuinely unbounded queue — a
    closed loop would self-throttle and mask the collapse.
    """
    sim = stack.sim
    outcomes: List[Tuple[float, Any]] = []
    arrival_rng = stack.streams.stream("a18.arrivals")

    def waiter(t0: float, event):
        yield event
        outcomes.append((t0, event.value))

    def load():
        for i in range(num_requests):
            event = stack.invoke("client-1", i)
            sim.spawn(waiter(sim.now, event), name=f"wait.{i}")
            yield sim.timeout(
                float(arrival_rng.exponential(INTERARRIVAL_MS))
            )

    sim.spawn(load(), name="load.open")
    sim.run()
    return outcomes


def grid(num_requests: int = 900) -> Tuple[dict, ...]:
    """The three estimation disciplines under the same clock schedule."""
    return cartesian(variant=VARIANTS, num_requests=[num_requests])


def point(params: dict, seed: int, repetition: int) -> Dict[str, float]:
    """One variant run: timeliness in and out of the fault window."""
    stack = build_stack(seed, params["variant"])
    outcomes = drive(stack, params["num_requests"])
    # Let re-admission probes settle.
    stack.sim.run(until=max(stack.sim.now, 6000.0))
    client = stack.clients["client-1"]
    quarantines = 0
    if client.health is not None:
        quarantines = sum(
            1
            for e in client.health.events
            if e.new_state is HealthState.QUARANTINED
            and e.reason == "clock_fault"
        )
    return {
        **window_timeliness(outcomes, WINDOW_START, WINDOW_END),
        "clock_quarantines": quarantines,
        "clock_rejections": client.clock_rejections,
    }


EXPERIMENT = Experiment(
    key="A18",
    title="A18 clock-fault tolerance",
    point=point,
    grid=grid(),
    seeds=(0, 1, 2),
    quick_grid=grid(),
    quick_seeds=(0,),
    tables=(
        Table(
            f"Clock faults in [{WINDOW_START:.0f}, {WINDOW_END:.0f}) ms: "
            "10 s step + freeze on s-1, ±500 ppm drift on s-2/s-3, 200 ms "
            f"step on s-4 (deadline {DEADLINE_MS:.0f} ms, Pc = 0.9)",
            (
                ("variant", "variant"),
                ("window timely", "window_timely_fraction"),
                ("overall timely", "overall_timely_fraction"),
                ("clock quarantines", "clock_quarantines"),
                ("rejections", "clock_rejections"),
            ),
        ),
    ),
)
