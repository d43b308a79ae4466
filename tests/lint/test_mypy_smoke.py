"""Smoke test: ``mypy --strict`` passes on the typed-core packages.

Runs only where mypy is installed (the ``dev`` extra, as in CI); on a
bare interpreter the test skips rather than fails, so the tier-1 suite
stays runnable without any static-analysis toolchain.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import pytest

from .conftest import REPO_ROOT

STRICT_PACKAGES = [
    "repro.core",
    "repro.sim",
    "repro.rng",
    "repro.gateway",
    "repro.engine",
    "repro.overload",
    "repro.health",
    "repro.faultinject",
]

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed (pip install -e '.[dev]')",
)


@pytest.mark.timeout(600)
def test_mypy_strict_is_clean():
    command = [sys.executable, "-m", "mypy", "--strict"]
    for package in STRICT_PACKAGES:
        command += ["-p", package]
    result = subprocess.run(
        command,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, f"\n{result.stdout}\n{result.stderr}"
