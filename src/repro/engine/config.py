"""The one place a timing-fault client is configured.

The paper's handler takes the deadline ``t``, the probability ``Pc(t)``
(both in the :class:`~repro.core.qos.QoSSpec`), the window size ``l`` and
a violation callback (§5.4, §6).  :class:`EngineConfig` declares those
and every §8 / robustness option once — name, default, meaning — and
range-checks them in one ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.estimator import ResponseTimeEstimator
from ..core.qos import QoSViolationCallback
from ..core.repository import InformationRepository
from ..core.selection import SelectionPolicy
from ..health import HealthConfig, HealthListener
from .types import RequestClassifier

__all__ = ["EngineConfig", "EstimatorFactory"]

EstimatorFactory = Callable[[InformationRepository], ResponseTimeEstimator]


@dataclass(frozen=True)
class EngineConfig:
    """Behaviour options of one timing-fault client, validated on creation.

    A config belongs to one client (``policy`` is stateful):
    :meth:`repro.workload.ministack.Deployment.bind_client` builds one
    per call from flat keywords.  Everything defaults to the paper's base
    design; the §8 extensions, health and overload subsystems are off
    until their option is set.

    Parameters
    ----------
    policy:
        Replica-selection policy; ``None`` gives each client its own
        :class:`~repro.core.selection.DynamicSelectionPolicy` with
        single-crash tolerance, compensating ``selection_charge_ms``.
    window_size:
        The repository's sliding-window size ``l`` (paper default 5).
    gateway_window_size:
        When set, keep a sliding window of gateway delays per replica and
        model ``T_i`` as a distribution (§5.3.1 extension).
    selection_charge_ms:
        Simulated CPU time charged between request interception and
        transmission (covers marshalling + selection).  Also used as the
        ``δ`` for deadline compensation, keeping runs deterministic.
    response_timeout_factor:
        A request with no reply after ``factor × deadline`` completes as a
        timed-out failure (the paper's clients wait forever; a closed-loop
        simulation must not).  With the health config's adaptive timeout
        quantile in effect, ``factor × deadline`` becomes the *ceiling*
        of the adaptive timeout instead.
    violation_callback:
        Invoked as ``callback(service, observed_probability, spec)`` when
        the observed timely frequency first drops below the QoS minimum
        (never before 10 responses were observed).
    classifier:
        Optional request classifier (§8 extension): performance history
        and models are kept per class key.  ``None`` keeps the paper's
        one-model-per-service design.
    estimator_factory:
        Builds the estimator over each class's repository (e.g.
        :class:`~repro.core.estimator.QueueScaledEstimator`), which
        refuses any grid but
        :data:`~repro.core.distribution.BIN_WIDTH_MS`; defaults to
        :class:`~repro.core.estimator.ResponseTimeEstimator`.
    probe_staleness_ms:
        When set, replicas whose records are older than this are probed
        out of band every ``probe_interval_ms`` (§8 extension).
    probe_interval_ms:
        Period of the probe tick (which also serves the health monitor's
        verification probes); also how long a probe may stay unanswered
        before it is given up on.
    bootstrap_probes:
        When true, every group member is probed once at startup so each
        replica has a baseline round trip measured on this gateway's own
        clock before any replica-reported timing is trusted — the
        reference the clock-sanity deflation test compares against.
    retry:
        When true, an unanswered request is retransmitted to the
        next-best untried replica: the first copy after half the
        deadline, each later one after twice the previous wait (never
        longer than the deadline), at most two copies after the original.
    health_config:
        When set, the engine runs a per-replica
        :class:`~repro.health.HealthMonitor` fed by reply outcomes,
        omission timeouts, probe results and crash declarations; the
        selection context then carries the health view (quarantine
        exclusion + trust discounts).  Its clock-sanity fields configure
        evidence admission and its ``adaptive_timeout_quantile`` the
        response timeout.
    health_listener:
        Callback receiving every :class:`~repro.health.HealthEvent`
        (scenarios wire this to the Proteus manager — the paper's
        fault-notification path).  Needs a ``health_config``.
    overload_config:
        When true, the engine runs the overload subsystem
        (docs/ARCHITECTURE.md §6): a :class:`~repro.overload.LoadTracker`
        fed from the queue evidence on every reply/push/probe, the
        selection policy wrapped in a
        :class:`~repro.overload.GovernedSelectionPolicy` (redundancy
        cap), and an :class:`~repro.overload.AdmissionController` that
        fail-fast sheds hopeless requests under pressure.
    """

    policy: Optional[SelectionPolicy] = None
    window_size: int = 5
    gateway_window_size: Optional[int] = None
    selection_charge_ms: float = 0.3
    response_timeout_factor: float = 10.0
    violation_callback: Optional[QoSViolationCallback] = None
    classifier: Optional[RequestClassifier] = None
    estimator_factory: Optional[EstimatorFactory] = None
    probe_staleness_ms: Optional[float] = None
    probe_interval_ms: float = 200.0
    bootstrap_probes: bool = False
    retry: bool = False
    health_config: Optional[HealthConfig] = None
    health_listener: Optional[HealthListener] = None
    overload_config: bool = False

    def __post_init__(self) -> None:
        """Reject out-of-range numbers and options that cannot take effect."""
        window, staleness = self.gateway_window_size, self.probe_staleness_ms
        for name, holds, rule in (
            ("window_size", self.window_size >= 1, ">= 1"),
            ("gateway_window_size", window is None or window >= 1, ">= 1"),
            ("selection_charge_ms", self.selection_charge_ms >= 0, ">= 0"),
            (
                "response_timeout_factor",
                self.response_timeout_factor > 1,
                "> 1 (the deadline itself)",
            ),
            ("probe_staleness_ms", staleness is None or staleness > 0, "> 0"),
            ("probe_interval_ms", self.probe_interval_ms > 0, "> 0"),
        ):
            if not holds:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        if self.health_listener is not None and self.health_config is None:
            raise ValueError(
                "health_listener needs a health_config: without one no "
                "health monitor runs and the listener would never be called"
            )

    def build_estimator(
        self, repository: InformationRepository
    ) -> ResponseTimeEstimator:
        """The estimator over one class's ``repository``."""
        if self.estimator_factory is None:
            return ResponseTimeEstimator(repository)
        return self.estimator_factory(repository)
