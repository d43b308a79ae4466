"""The experiment registry's contracts.

Every registered sweep inherits the parallel engine's 1-vs-N digest
equality; every row carries every declared column and the quick rows
show the paper's shapes (``quick_shapes.py``); keys are unique and
resolve lazily; the ``--list`` table is the one EXPERIMENTS.md prints;
``--check-digests`` names the experiment whose digest moved, the A17
campaign included.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import MODULES, load
from repro.experiments.__main__ import DIGESTS_FILE, list_table, main
from repro.experiments.registry import Experiment, run

from .quick_shapes import SHAPES

REPO_ROOT = Path(__file__).resolve().parents[2]
SWEEPS = [key for key in MODULES if isinstance(load(key), Experiment)]


@pytest.mark.parametrize("key", SWEEPS)
def test_quick_sweep_is_worker_invariant_and_fills_every_column(key):
    experiment = load(key)
    serial, fanned = (
        run(
            experiment,
            grid=experiment.quick_grid,
            seeds=experiment.quick_seeds,
            workers=workers,
        )
        for workers in (1, 2)
    )
    assert fanned.digest == serial.digest
    assert fanned.rows == serial.rows
    assert serial.rows
    for table in experiment.tables:
        for row in serial.rows:
            for _header, column in table.columns:
                assert column in row, (key, column)
    if key in SHAPES:
        SHAPES[key](serial.rows)


def test_keys_are_unique_and_match_their_entries():
    entries = [load(key) for key in MODULES]
    assert [entry.key for entry in entries] == list(MODULES)
    assert len({entry.title for entry in entries}) == len(entries)
    assert len(set(MODULES.values())) == len(MODULES)


def test_list_matches_experiments_md(capsys):
    assert main(["--list"]) == 0
    printed = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
    assert printed == [line.rstrip() for line in list_table().splitlines()]
    document = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = re.search(r"```text\n(key +experiment.*?)```", document, re.S)
    assert block, "EXPERIMENTS.md lost its registry table"
    assert [line.rstrip() for line in block.group(1).splitlines()] == printed


def test_importing_one_experiment_imports_no_sibling():
    code = (
        "import sys, repro.experiments.overload_collapse;"
        "print('repro.experiments.fig45_selection' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_pinned_digests_name_registered_sweeps():
    # Every sweep, and the one command with a reproducible digest.
    pinned = json.loads((REPO_ROOT / DIGESTS_FILE).read_text())
    assert set(pinned) == set(SWEEPS) | {"A17"}
    assert pinned["A17"].startswith("b60ebaafca63f2fd")


def test_check_digests_names_the_offending_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = run(load("min_response")).digest
    Path(DIGESTS_FILE).write_text(json.dumps({"min_response": digest}))
    assert main(["min_response", "--check-digests"]) == 0
    Path(DIGESTS_FILE).write_text(json.dumps({"min_response": "0" * 64}))
    capsys.readouterr()
    assert main(["min_response", "--check-digests"]) == 1
    assert "DIGEST MISMATCH min_response" in capsys.readouterr().out
    Path(DIGESTS_FILE).write_text("{}")  # a sweep without a pin fails too
    assert main(["min_response", "--check-digests"]) == 1
    assert "pinned None" in capsys.readouterr().out


def test_check_digests_runs_each_sweep_s_row_check(tmp_path, monkeypatch, capsys):
    import dataclasses

    import repro.experiments.__main__ as command_line

    monkeypatch.chdir(tmp_path)
    experiment = load("min_response")
    Path(DIGESTS_FILE).write_text(
        json.dumps({"min_response": run(experiment).digest})
    )
    checked = dataclasses.replace(
        experiment, check=lambda rows: [f"{len(rows)} rows out of bounds"]
    )
    monkeypatch.setattr(command_line, "load", lambda key: checked)
    capsys.readouterr()
    assert main(["min_response", "--check-digests"]) == 1
    out = capsys.readouterr().out
    assert "ROW CHECK FAILED min_response: " in out
    assert "DIGEST MISMATCH" not in out
    # Without the flag the rows are printed, not checked.
    assert main(["min_response"]) == 0
    assert "ROW CHECK FAILED" not in capsys.readouterr().out


def test_check_digests_gates_the_a17_campaign(tmp_path, monkeypatch, capsys):
    # The pin is the default campaign's; a four-schedule one stands in
    # for it here, pinned in a scratch digests file.
    from repro.faultinject.campaign import CampaignConfig, run_campaign

    monkeypatch.chdir(tmp_path)
    digest = run_campaign(CampaignConfig(schedules=4)).digest
    argv = ["A17", "--check-digests", "--schedules", "4"]
    Path(DIGESTS_FILE).write_text(json.dumps({"A17": digest}))
    assert main(argv) == 0
    assert "DIGEST MISMATCH" not in capsys.readouterr().out
    perturbed = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    Path(DIGESTS_FILE).write_text(json.dumps({"A17": perturbed}))
    assert main(argv) == 1
    assert f"DIGEST MISMATCH A17: digest {digest}" in capsys.readouterr().out
    Path(DIGESTS_FILE).write_text("{}")  # no pin at all fails too
    assert main(argv) == 1
    assert "pinned None" in capsys.readouterr().out
    # Without the flag the same run compares nothing.
    assert main(["A17", "--schedules", "4"]) == 0


def test_json_export_carries_rows_and_digest(tmp_path, capsys):
    artifact = tmp_path / "rows.json"
    assert main(["min_response", "A15", "--quick", "--json", str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    assert set(payload) == {"min_response", "A15"}
    assert payload["A15"]["digest"]
    assert {row["variant"] for row in payload["A15"]["points"]} == {
        "health",
        "no-health",
    }


def test_a_lone_command_writes_its_json_or_refuses_the_flag(tmp_path, capsys):
    # fig3 once printed both tables, exited 0 and wrote nothing.
    artifact = tmp_path / "estimator.json"
    assert main(["fig3", "--quick", "--json", str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    assert payload["benchmark"] == "fig3-estimator-overhead"
    assert len(payload["points"]) == 9
    refused = tmp_path / "smoke.json"
    assert main(["smoke", "--json", str(refused)]) == 2
    assert not refused.exists()
    assert "--json is not supported" in capsys.readouterr().err


def test_type_errors_inside_an_experiment_surface():
    # A quick/reduced run must never fall back to another sweep when a
    # point function raises: the error surfaces.
    with pytest.raises(TypeError):
        run(load("min_response"), grid=({"requests": "fifty"},), seeds=(0,))
