"""The clock-fault plane: de-synchronize per-host virtual clocks.

The paper's protocol never assumes synchronized clocks — every interval
is measured on a single host — but an *implementation* can break that
discipline in many quiet ways (comparing a replica's absolute timestamp
with the gateway's, trusting a frozen clock's zero durations).  This
module injects the faults that expose such bugs, as declarative windows
over the :class:`~repro.sim.hostclock.HostClock` plane:

* ``skew``   — a constant offset for the window (bad initial sync);
* ``drift``  — the clock runs fast/slow by ``drift_ppm`` parts per
  million (oscillator error; ±500 ppm is a realistic bound);
* ``step``   — an NTP-style jump by ``step_ms`` at window start;
* ``freeze`` — the clock stops advancing (lost timer interrupts, VM
  pause); every duration measured across the freeze reads as zero;
* ``jitter`` — per-read uniform noise of ±``jitter_ms`` (failing timer
  hardware); readings are no longer monotone.

Every window ends with a ``resync()`` — an external time service
correcting the host — so a drained run finishes on healthy clocks.  The
deployment's :class:`~repro.faultinject.plane.FaultPlane` arms the
windows; this module is the pure data.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CLOCK_FAULT_KINDS", "ClockFault"]

#: The declarative clock-fault family, in drawing order.
CLOCK_FAULT_KINDS = ("skew", "drift", "step", "freeze", "jitter")


@dataclass(frozen=True)
class ClockFault:
    """De-synchronize ``host``'s clock during ``[start_ms, end_ms)``.

    Exactly one magnitude parameter is meaningful per ``kind`` (see the
    module docstring); the others keep their defaults.  ``offset_ms``
    serves both ``skew`` (held for the window) and — via ``step_ms`` —
    the NTP-style jump; they share mechanics but model different
    operational events, so they stay distinct kinds in the family.
    """

    host: str
    start_ms: float
    end_ms: float
    kind: str = "skew"
    offset_ms: float = 0.0
    drift_ppm: float = 0.0
    step_ms: float = 0.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("a clock fault needs a host")
        if self.start_ms < 0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"end_ms must exceed start_ms, got [{self.start_ms}, {self.end_ms}]"
            )
        if self.kind not in CLOCK_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {CLOCK_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "skew" and self.offset_ms == 0.0:  # repro-lint: disable=RL003 (config default detection)
            raise ValueError("a skew fault needs a non-zero offset_ms")
        if self.kind == "drift" and self.drift_ppm == 0.0:  # repro-lint: disable=RL003 (config default detection)
            raise ValueError("a drift fault needs a non-zero drift_ppm")
        if self.kind == "step" and self.step_ms == 0.0:  # repro-lint: disable=RL003 (config default detection)
            raise ValueError("a step fault needs a non-zero step_ms")
        if self.kind == "jitter" and self.jitter_ms <= 0.0:
            raise ValueError("a jitter fault needs a positive jitter_ms")
        if self.drift_ppm <= -1_000_000.0:
            raise ValueError(
                "drift_ppm must exceed -1e6 (a clock cannot run backward "
                f"continuously), got {self.drift_ppm}"
            )

    @property
    def rate(self) -> float:
        """The drift kind's clock rate (local ms per kernel ms)."""
        return 1.0 + self.drift_ppm / 1_000_000.0

    def active(self, now_ms: float) -> bool:
        """Whether the window covers ``now_ms``."""
        return self.start_ms <= now_ms < self.end_ms
