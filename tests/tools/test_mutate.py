"""Self-test of the mutation runner (``tools/mutate.py``) on a three-site module.

``mutation_fixture/src/toy.py`` is ``return x * 1`` and its one check is
``scale(3) == 3``: flipping ``1 -> 0`` and deleting the ``return`` are
killed, ``* -> /`` is an equivalent mutant the check must miss.
``mutation_fixture/src/shapes.py`` holds the class bodies whose bare
annotations are, and are not, mutation sites.  The last test holds
``TARGETS`` to the tree and to the committed ``BENCH_mutation.json``.
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
    source = (FIXTURE / "src" / "toy.py").read_text()
    entry = mutate.summary(["toy_checks.py"], outcomes, source)
    assert (entry["mutants"], entry["killed"], entry["survived"]) == (3, 2, 1)
    assert entry["survivors"] == [
        {"line": 5, "operator": "Mult->Div", "source": "return x * 1"}
    ]
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


# -- the ratchet -----------------------------------------------------------------

CHECKED = """\
def scale(x):
    assert x >= 0
    return x * 1
"""


def module_entry(source, survivors):
    """The summary of ``source`` when exactly the mutants named in
    ``survivors`` (``(source line, operator)``) survive."""
    lines = source.splitlines()
    outcomes = [
        (m, "survived" if (lines[m.line - 1].strip(), m.operator) in survivors else "killed")
        for m in mutate.enumerate_mutants(source)
    ]
    return mutate.summary(["checks.py"], outcomes, source)


COMMITTED = {"toy.py": module_entry(CHECKED, {("return x * 1", "Mult->Div")})}


def test_deleting_a_killed_line_passes():
    # Three kills fewer and the survivor one line up: no new survivor.
    without_assert = CHECKED.replace("    assert x >= 0\n", "")
    entry = module_entry(without_assert, {("return x * 1", "Mult->Div")})
    assert entry["killed"] < COMMITTED["toy.py"]["killed"]
    assert entry["survivors"][0]["line"] == 2
    assert mutate.ratchet(COMMITTED, {"toy.py": entry}) == []


def test_removing_the_check_that_killed_a_mutant_fails():
    entry = module_entry(CHECKED, {("return x * 1", "Mult->Div"), ("return x * 1", "1->0")})
    assert mutate.ratchet(COMMITTED, {"toy.py": entry}) == [
        "toy.py: new survivor 1->0 on line 3: return x * 1"
    ]


def test_adding_an_unchecked_line_fails():
    grown = CHECKED.replace("    return", "    x = x + 0\n    return")
    entry = module_entry(
        grown, {("return x * 1", "Mult->Div"), ("x = x + 0", "Add->Sub")}
    )
    assert entry["killed"] > COMMITTED["toy.py"]["killed"]
    assert mutate.ratchet(COMMITTED, {"toy.py": entry}) == [
        "toy.py: new survivor Add->Sub on line 3: x = x + 0"
    ]


def test_a_committed_entry_without_source_text_is_held_to_its_survived_count():
    old = {"toy.py": {"survived": 1, "survivors": [{"line": 3, "operator": "Mult->Div"}]}}
    one = module_entry(CHECKED, {("return x * 1", "1->0")})
    two = module_entry(CHECKED, {("return x * 1", "1->0"), ("return x * 1", "Mult->Div")})
    assert mutate.ratchet(old, {"toy.py": one}) == []  # another survivor, not one more
    assert mutate.ratchet(old, {"toy.py": two}) == ["toy.py: survived 2, committed 1"]
    assert mutate.ratchet({}, {"toy.py": two}) == []  # a new target has no floor


def test_a_run_with_a_survivor_the_file_does_not_list_fails(
    toy_run, tmp_path, monkeypatch, capsys
):
    _, outcomes = toy_run
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    monkeypatch.setattr(mutate, "TARGETS", {"toy.py": ("toy_checks.py",)})
    monkeypatch.setattr(mutate, "run_module", lambda root, module, tests: outcomes)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text((FIXTURE / "src" / "toy.py").read_text())
    committed = tmp_path / mutate.OUTPUT
    committed.write_text(json.dumps({"modules": {"toy.py": {"survivors": []}}}))
    assert mutate.main() == 1
    assert "toy.py: new survivor Mult->Div on line 5: return x * 1" in capsys.readouterr().err
    written = json.loads(committed.read_text())["modules"]["toy.py"]
    assert written["survivors"][0]["source"] == "return x * 1"
    assert written["seconds"] >= 0.0  # each module's wall time
    assert mutate.main() == 0  # the file just written lists the survivor


# -- the committed run's owners are real ----------------------------------------


def test_every_target_and_owner_exists_and_is_the_committed_runs():
    """A deleted or renamed owner fails here, not as "fail unmutated" in a
    nightly run; a renamed suite cannot leave the ratchet file stale."""
    committed = json.loads((mutate.ROOT / mutate.OUTPUT).read_text())["modules"]
    assert sorted(committed) == sorted(mutate.TARGETS)
    for module, tests in mutate.TARGETS.items():
        assert (mutate.ROOT / "src" / module).is_file(), module
        assert [t for t in tests if not (mutate.ROOT / t).is_file()] == [], module
        assert committed[module]["tests"] == list(tests), module
        assert committed[module]["seconds"] > 0, module
