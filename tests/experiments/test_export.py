"""Tests for the CSV export of experiment rows (``--csv DIR``)."""

import csv

from repro.experiments.__main__ import main
from repro.experiments.export import write_csv


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    count = write_csv(path, ["a", "b"], [(1, 2.5), ("x", "y")])
    assert count == 2
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "2.5"]


def test_export_all_quick(tmp_path):
    outdir = tmp_path / "figures"
    code = main(["fig45", "min_response", "A1", "--quick", "--csv", str(outdir)])
    assert code == 0
    assert {p.name for p in outdir.iterdir()} == {
        "fig45.csv",
        "min_response.csv",
        "A1.csv",
    }
    for path in outdir.iterdir():
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) >= 2  # header + at least one data row


def test_fig4_csv_has_full_sweep(tmp_path):
    main(["fig45", "--quick", "--csv", str(tmp_path)])
    with open(tmp_path / "fig45.csv") as handle:
        rows = list(csv.DictReader(handle))
    # 6 deadlines x 3 probabilities.
    assert len(rows) == 18
    probabilities = {row["min_probability"] for row in rows}
    assert probabilities == {"0.9", "0.5", "0.0"}
