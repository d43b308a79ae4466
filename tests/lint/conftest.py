"""Path setup for the repro-lint self-tests, and helpers the lints share.

The lint pack lives in ``tools/`` (outside the installed package) so it
can lint the package without importing it; the tests put ``tools/`` on
``sys.path`` exactly like the CI job's ``PYTHONPATH=tools`` does.
"""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS_DIR = REPO_ROOT / "tools"
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"

if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))


@functools.lru_cache(maxsize=None)
def parsed(path: Path) -> ast.Module:
    """The syntax tree of ``path``, parsed once per test session (the
    lints only read trees, they never edit one)."""
    return ast.parse(path.read_text("utf-8"))


def assert_allowed_exactly(findings, allowed, cap):
    """Each finding (a tuple of names: module, function, ...) is covered by a
    key of ``allowed``, every key covers one, and there are at most ``cap``."""
    kept = {key for finding in findings for key in finding if key in allowed}
    assert len(allowed) <= cap
    assert {finding for finding in findings if not kept & set(finding)} == set()
    assert kept == set(allowed)
