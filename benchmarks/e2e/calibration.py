"""Machine-speed calibration: what makes host times steady on a shared box.

The sandbox is a small VM on an oversubscribed host: for seconds to
minutes at a time everything in it — workload and ``process_time``
alike — runs 10–40 % slower, and the guest is never told (steal time
reads 0).  Ten raw runs of one seed then spread 15–27 % between their
quartiles, wider than any bound worth setting.

So every pass interleaves a fixed reference computation with the work it
measures: :func:`spin` (plain Python dict/float work plus three small
numpy kernels, the same mix the program under test runs) is timed at
each of ~200 marks through the timed region and is *not* counted in it.
A segment between two marks is then charged at reference speed:

    steady = measured × REFERENCE_SPIN_S ÷ (mean spin time around it)

``REFERENCE_SPIN_S`` is what one spin takes on this sandbox in a calm
spell, so on a calm machine steady time ≈ measured time; its value only
fixes the unit and must not change (it would move every host-time
metric).  Measured on the seed, ten seeds per workload: quartile spread
of the wall clock 10–30 % raw → 3–4 % steady in a noisy spell, 5–6 % →
2–5 % in a calm one (the rest is real seed-to-seed difference).
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["REFERENCE_SPIN_S", "spin", "slowdowns"]

#: One spin on the seed's sandbox in a calm spell (seconds).
REFERENCE_SPIN_S = 0.0011

#: Marks on each side whose spins are averaged into a segment's speed.
WINDOW = 5

_A = np.linspace(0.0, 1.0, 60)
_B = np.linspace(1.0, 0.0, 60)
_M = np.random.default_rng(0).random((64, 120))


def spin() -> None:
    """Run the fixed reference computation (the caller times it)."""
    table: dict = {}
    total = 0.0
    for index in range(6000):
        key = index & 63
        table[key] = table.get(key, 0) + 1
        total += (index * 0.5) % 7.0
    for _ in range(30):
        np.convolve(_A, _B).cumsum()
        (_M <= 0.5).sum(axis=1)


def slowdowns(spin_s: List[float]) -> List[float]:
    """Per-segment slowdown against the reference machine.

    ``spin_s`` holds one spin per mark (``n + 1`` marks bound ``n``
    segments); segment ``i`` lies between marks ``i`` and ``i + 1`` and
    is charged the mean of the spins within ``WINDOW`` marks of it.
    """
    factors = []
    for index in range(len(spin_s) - 1):
        near = spin_s[max(0, index - WINDOW) : index + 2 + WINDOW]
        factors.append(sum(near) / len(near) / REFERENCE_SPIN_S)
    return factors
