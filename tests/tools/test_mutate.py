"""Self-test of the mutation runner (``tools/mutate.py``) on a three-site module.

``mutation_fixture/src/toy.py`` is ``return x * 1`` and its one check is
``scale(3) == 3``: flipping ``1 -> 0`` and deleting the ``return`` are
killed, ``* -> /`` is an equivalent mutant the check must miss.
``mutation_fixture/src/shapes.py`` holds the class bodies whose bare
annotations are, and are not, mutation sites.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parent / "mutation_fixture"
sys.path.insert(0, str(FIXTURE.parents[2] / "tools"))

import mutate  # noqa: E402


def tree():
    return {path: path.read_bytes() for path in FIXTURE.rglob("*") if path.is_file()}


@pytest.fixture(scope="module")
def toy_run():
    """``(fixture tree before the run, outcomes)`` of the one real run."""
    before = tree()
    return before, mutate.run_module(FIXTURE, "toy.py", ["toy_checks.py"])


def test_the_runner_kills_what_the_check_sees_and_reports_what_it_misses(toy_run):
    before, outcomes = toy_run
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


def test_keys_a_typed_dict_or_protocol_declares_are_not_mutants():
    source = (FIXTURE / "src" / "shapes.py").read_text()
    # Deleting ``load: float`` or ``name: str`` changes nothing at run
    # time; deleting the field ``x`` changes ``Point``'s constructor.
    assert [(m.line, m.operator) for m in mutate.enumerate_mutants(source)] == [
        (18, "delete AnnAssign"),
    ]


def test_a_run_that_kills_less_than_the_file_it_replaces_fails(
    toy_run, tmp_path, monkeypatch, capsys
):
    _, outcomes = toy_run
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    monkeypatch.setattr(mutate, "TARGETS", {"toy.py": ("toy_checks.py",)})
    monkeypatch.setattr(mutate, "run_module", lambda root, module, tests: outcomes)
    committed = tmp_path / mutate.OUTPUT
    committed.write_text(json.dumps({"modules": {"toy.py": {"killed": 3}}}))
    assert mutate.main() == 1
    assert "toy.py: killed 2, committed 3" in capsys.readouterr().err
    assert json.loads(committed.read_text())["modules"]["toy.py"]["killed"] == 2
    assert mutate.main() == 0  # the file just written is the new floor
    assert mutate.ratchet({}, {"toy.py": {"killed": 0}}) == []  # a new target
