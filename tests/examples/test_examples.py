"""Every example prints what it printed when its golden was taken.

Each example seeds its own randomness, so its stdout is a function of the
code alone: a diff here is a behaviour change, not noise.  Regenerate a
golden only in a change meant to alter behaviour:
``PYTHONPATH=src python examples/NAME.py > tests/examples/golden/NAME.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.fixture(scope="module")
def printed():
    """Example name -> its stdout; the six interpreters run side by side."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    running = {
        example.stem: subprocess.Popen(
            [sys.executable, str(example)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": path},
        )
        for example in EXAMPLES
    }
    stdout = {name: proc.communicate(timeout=120)[0] for name, proc in running.items()}
    assert {name: proc.returncode for name, proc in running.items()} == dict.fromkeys(
        running, 0
    )
    return stdout


def test_every_example_has_a_golden():
    assert [p.stem for p in EXAMPLES] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_prints_its_golden(example, printed):
    assert printed[example.stem] == (GOLDEN / f"{example.stem}.txt").read_text()
