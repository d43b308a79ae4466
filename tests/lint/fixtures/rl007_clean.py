"""RL007 clean: every dynamic policy has its overhead pinned or switched off."""

from repro.core.selection import DynamicSelectionPolicy

POLICIES = {
    "charged": lambda: DynamicSelectionPolicy(crash_tolerance=2, fixed_overhead_ms=0.3),
    "uncompensated": lambda: DynamicSelectionPolicy(compensate_overhead=False),
    "forwarded": lambda **options: DynamicSelectionPolicy(**options),
}
