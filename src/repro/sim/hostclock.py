"""Per-host virtual clocks: host-local time on top of the kernel clock.

The simulation kernel keeps one perfectly synchronized clock
(:attr:`Simulator.now`).  Real deployments do not: every host reads its
*own* oscillator, which may be offset (skew), run fast or slow (drift),
jump when an operator or NTP steps it, stop entirely (a frozen clock) or
return noisy values (a failing timer interrupt).  The paper's protocol
stamps ``tq``/``ts`` on the replica's clock and ``t0``/``t1``/``t4`` on
the gateway's clock, so reproducing clock faults requires that the two
sides genuinely read *different* clocks.

:class:`HostClock` maps kernel time to host-local time through a
piecewise-linear segment anchored at the last manipulation::

    local(k) = anchor_local + (k - anchor_kernel) * rate      (+ jitter)

A clock that has never been manipulated (and one that has been
``resync()``-ed, modelling an NTP correction) is *pristine*: it returns
the kernel reading bit-for-bit, so routing existing call sites through a
``HostClock`` changes nothing until a fault is injected.

Discipline (enforced by repro-lint rule RL006 for host-level code):

* **timestamps** are host observations and must come from the owning
  host's ``clock.now``;
* **scheduling** (``call_at``/``call_in``/timeouts) stays on the kernel
  — a virtual clock is a read-only view, it never drives the event loop;
* **tracing and physical processes** (load profiles, metrics time axes)
  are omniscient-observer reads and use ``clock.kernel_now`` explicitly,
  which documents the decision at the call site.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .kernel import Simulator

__all__ = ["HostClock", "ClockRegistry"]


class HostClock:
    """A host's local clock: a manipulable view of the kernel clock.

    All mutators re-anchor the piecewise-linear mapping at the current
    kernel instant so the local reading is continuous across a rate
    change and jumps only on :meth:`step`.  ``resync`` restores the
    pristine state (offset 0, rate 1, no jitter), modelling an external
    time service correcting the clock.
    """

    def __init__(self, sim: Simulator, host: str = "") -> None:
        self._sim = sim
        self.host = host
        self._pristine = True
        self._anchor_kernel = 0.0
        self._anchor_local = 0.0
        self._rate = 1.0
        self._frozen = False
        self._jitter_ms = 0.0
        self._jitter_rng: Optional[np.random.Generator] = None

    # -- reading ---------------------------------------------------------------

    @property
    def kernel_now(self) -> float:
        """The omniscient kernel clock (tracing/physical-process reads)."""
        return self._sim.now

    @property
    def faulted(self) -> bool:
        """True while the clock deviates from the kernel mapping."""
        return not self._pristine

    def _local(self, kernel_ms: float) -> float:
        if self._frozen:
            return self._anchor_local
        return self._anchor_local + (kernel_ms - self._anchor_kernel) * self._rate

    @property
    def now(self) -> float:
        """This host's local time, in (local) milliseconds."""
        kernel = self._sim.now
        if self._pristine:
            return kernel  # bit-identical to the kernel until faulted
        local = self._local(kernel)
        if self._jitter_ms > 0.0 and self._jitter_rng is not None:
            local += float(
                self._jitter_rng.uniform(-self._jitter_ms, self._jitter_ms)
            )
        return local

    def elapsed_since(self, started_local_ms: float, kernel_elapsed_ms: float) -> float:
        """A duration measured on this clock.

        A healthy clock measures a kernel interval exactly (no float
        residue from anchor arithmetic); a manipulated clock shows its
        fault in the measurement, which is the point of the exercise.
        """
        if self._pristine:
            return kernel_elapsed_ms
        return self.now - started_local_ms

    # -- manipulation (the clock-fault plane drives these) ---------------------

    def _reanchor(self) -> None:
        kernel = self._sim.now
        self._anchor_local = kernel if self._pristine else self._local(kernel)
        self._anchor_kernel = kernel
        self._pristine = False

    def step(self, delta_ms: float) -> None:
        """Jump the local reading by ``delta_ms`` (skew / NTP-style step)."""
        self._reanchor()
        self._anchor_local += delta_ms

    def set_rate(self, rate: float) -> None:
        """Run at ``rate`` local ms per kernel ms (drift; 1.0 = nominal)."""
        if rate < 0.0:
            raise ValueError(f"clock rate must be >= 0, got {rate}")
        self._reanchor()
        self._rate = rate

    def freeze(self) -> None:
        """Stop the clock at its current local reading."""
        self._reanchor()
        self._frozen = True

    def set_jitter(self, amplitude_ms: float, rng: np.random.Generator) -> None:
        """Add uniform per-read noise of ±``amplitude_ms`` (failing timer)."""
        if amplitude_ms < 0.0:
            raise ValueError(f"jitter amplitude must be >= 0, got {amplitude_ms}")
        self._reanchor()
        self._jitter_ms = amplitude_ms
        self._jitter_rng = rng

    def resync(self) -> None:
        """Snap back to the kernel mapping (an NTP correction)."""
        self._pristine = True
        self._anchor_kernel = 0.0
        self._anchor_local = 0.0
        self._rate = 1.0
        self._frozen = False
        self._jitter_ms = 0.0
        self._jitter_rng = None

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "pristine" if self._pristine else (
            "frozen" if self._frozen else f"rate={self._rate}"
        )
        return f"<HostClock {self.host or '?'} {state}>"


class ClockRegistry:
    """Create-on-demand map of host name -> :class:`HostClock`.

    A deployment builds one registry and hands each handler the clock of
    its owning host; the :class:`~repro.faultinject.plane.FaultPlane`
    manipulates the same objects, so a fault on ``s-1`` is visible to
    exactly the code running on ``s-1``.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._clocks: Dict[str, HostClock] = {}

    def clock(self, host: str) -> HostClock:
        """The (lazily created) clock of ``host``."""
        existing = self._clocks.get(host)
        if existing is None:
            existing = HostClock(self._sim, host=host)
            self._clocks[host] = existing
        return existing

    def __contains__(self, host: str) -> bool:
        return host in self._clocks

    def __len__(self) -> int:
        return len(self._clocks)
