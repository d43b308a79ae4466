"""RL007 trigger: a simulated run charged its measured wall-clock overhead."""

from repro.core import selection
from repro.core.selection import DynamicSelectionPolicy

POLICIES = {
    "bare": lambda: DynamicSelectionPolicy(crash_tolerance=2),
    "dotted": lambda: selection.DynamicSelectionPolicy(),
    "compensating": lambda: DynamicSelectionPolicy(compensate_overhead=True),
}
