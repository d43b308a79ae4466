"""Self-test of the mutation runner (``tools/mutate.py``) on a three-site module.

``mutation_fixture/src/toy.py`` is ``return x * 1`` and its one check is
``scale(3) == 3``: flipping ``1 -> 0`` and deleting the ``return`` are
killed, ``* -> /`` is an equivalent mutant the check must miss.
"""

from __future__ import annotations

import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent / "mutation_fixture"
sys.path.insert(0, str(FIXTURE.parents[2] / "tools"))

import mutate  # noqa: E402


def tree():
    return {path: path.read_bytes() for path in FIXTURE.rglob("*") if path.is_file()}


def test_the_runner_kills_what_the_check_sees_and_reports_what_it_misses():
    before = tree()
    outcomes = mutate.run_module(FIXTURE, "toy.py", ["toy_checks.py"])
    assert [(m.line, m.operator, outcome) for m, outcome in outcomes] == [
        (5, "delete Return", "killed"),
        (5, "Mult->Div", "survived"),
        (5, "1->0", "killed"),
    ]
    entry = mutate.summary(["toy_checks.py"], outcomes)
    assert (entry["mutants"], entry["killed"], entry["survived"]) == (3, 2, 1)
    assert entry["survivors"] == [{"line": 5, "operator": "Mult->Div"}]
    assert tree() == before  # the working tree is never edited


def test_each_mutant_is_one_change_to_the_parsed_source():
    source = (FIXTURE / "src" / "toy.py").read_text()
    mutants = mutate.enumerate_mutants(source)
    assert [mutate.mutate(source, m).splitlines()[-1] for m in mutants] == [
        "    pass",
        "    return x / 1",
        "    return x * 0",
    ]
