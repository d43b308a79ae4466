"""The ``stack`` fixture of the gateway-level tests.

:class:`repro.workload.MiniStack` — smaller and more controllable than
:class:`repro.workload.Scenario`: deterministic zero-jitter links,
constant service times by default, and direct access to every layer.
"""

from __future__ import annotations

import pytest

from repro.workload.ministack import METHOD, SERVICE, MiniStack

__all__ = ["METHOD", "SERVICE", "MiniStack", "stack"]


@pytest.fixture
def stack() -> MiniStack:
    return MiniStack()
