"""Service-time and host-load models for replicas.

The paper's system model (§3) assumes "the load on a replica may fluctuate
and ... periods of high load may make it less responsive".  A replica's
service duration here is

    duration = base_distribution.sample() × load_factor(now)

where the base distribution captures the request's intrinsic cost and the
load factor captures time-varying host contention.  The paper's §6
experiments "simulated the load on the servers by having each replica
respond to a request after a delay that was normally distributed with a
mean of 100 ms and a variance of 50 ms" — the profile
:class:`repro.workload.scenarios.Scenario` builds from its config.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..sim.random import Distribution

__all__ = [
    "LoadModel",
    "ConstantLoad",
    "StepLoad",
    "HostActivity",
    "CoupledLoad",
    "ServiceProfile",
]


class LoadModel:
    """Time-varying multiplicative load factor on a host."""

    def factor(self, now_ms: float) -> float:
        """The service-time multiplier in effect at ``now_ms`` (>= 0)."""
        raise NotImplementedError


class ConstantLoad(LoadModel):
    """A fixed load factor (1.0 = nominal)."""

    def __init__(self, factor: float = 1.0):
        if factor < 0:
            raise ValueError(f"load factor must be >= 0, got {factor}")
        self._factor = float(factor)

    def factor(self, now_ms: float) -> float:
        return self._factor

    def __repr__(self) -> str:
        return f"ConstantLoad({self._factor})"


class StepLoad(LoadModel):
    """Piecewise-constant load given as ``[(start_ms, factor), ...]``.

    The factor at time ``t`` is the one of the last step whose start is
    ``<= t``; before the first step the factor is ``initial``.  Use for
    scripted load spikes ("host h3 becomes 3× slower at t=30 s").
    """

    def __init__(
        self,
        steps: Sequence[Tuple[float, float]],
        initial: float = 1.0,
    ):
        if initial < 0:
            raise ValueError(f"initial factor must be >= 0, got {initial}")
        ordered = sorted(steps)
        for _start, factor in ordered:
            if factor < 0:
                raise ValueError(f"load factors must be >= 0, got {factor}")
        self._starts = [start for start, _factor in ordered]
        self._factors = [factor for _start, factor in ordered]
        self._initial = float(initial)

    def factor(self, now_ms: float) -> float:
        index = bisect_right(self._starts, now_ms)
        if index == 0:
            return self._initial
        return self._factors[index - 1]

    def __repr__(self) -> str:
        return f"StepLoad(steps={len(self._starts)})"


class HostActivity:
    """How many co-located replicas on each host are busy right now.

    The paper's system model allows "a machine may host multiple
    replicas" (§3); when several of them service requests concurrently
    they contend for the CPU.  Server handlers report service begin/end
    here, and :class:`CoupledLoad` turns the concurrency into a slowdown.
    """

    def __init__(self):
        self._busy: Dict[str, int] = {}

    def enter(self, host: str) -> None:
        """A replica on ``host`` started servicing a request."""
        self._busy[host] = self._busy.get(host, 0) + 1

    def exit(self, host: str) -> None:
        """A replica on ``host`` finished servicing a request."""
        current = self._busy.get(host, 0)
        if current <= 0:
            raise ValueError(f"exit() without matching enter() on {host!r}")
        self._busy[host] = current - 1

    def busy(self, host: str) -> int:
        """Number of replicas on ``host`` currently in service."""
        return self._busy.get(host, 0)

    def __repr__(self) -> str:
        active = {h: n for h, n in self._busy.items() if n}
        return f"<HostActivity busy={active}>"


class CoupledLoad(LoadModel):
    """Load factor driven by co-located replicas' concurrency.

    ``factor = 1 + alpha · other_busy`` where ``other_busy`` is
    the number of *other* replicas on the same host currently in service
    — a linear CPU-contention model.  The sampling replica is itself about
    to run, so only its neighbours slow it down.
    """

    def __init__(self, activity: HostActivity, host: str, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.activity = activity
        self.host = host
        self.alpha = float(alpha)

    def factor(self, now_ms: float) -> float:
        others = max(0, self.activity.busy(self.host))
        return 1.0 + self.alpha * others

    def __repr__(self) -> str:
        return f"CoupledLoad(host={self.host!r}, alpha={self.alpha})"


class ServiceProfile:
    """Per-method service-time distributions plus a host load model.

    Parameters
    ----------
    default:
        Distribution used for methods without an explicit entry.
    per_method:
        Optional overrides keyed by method name (the paper's "multiple
        service interfaces" extension needs exactly this hook).
    load:
        The host's time-varying load factor.
    """

    def __init__(
        self,
        default: Distribution,
        per_method: Optional[Dict[str, Distribution]] = None,
        load: Optional[LoadModel] = None,
    ):
        self.default = default
        self.per_method = dict(per_method or {})
        self.load = load or ConstantLoad(1.0)

    def distribution_for(self, method: str) -> Distribution:
        """The base service-time distribution for ``method``."""
        return self.per_method.get(method, self.default)

    def sample_duration(
        self, method: str, now_ms: float, rng: np.random.Generator
    ) -> float:
        """One service duration in ms, including the current load factor."""
        base = self.distribution_for(method).sample(rng)
        return max(0.0, base * self.load.factor(now_ms))

    def __repr__(self) -> str:
        return (
            f"<ServiceProfile default={self.default!r} "
            f"overrides={sorted(self.per_method)} load={self.load!r}>"
        )
