"""CSV export of experiment rows.

``python -m repro.experiments <KEY>… --csv DIR`` writes one
``<KEY>.csv`` per selected sweep — every row key as a column — so
downstream users can plot the data series with whatever tooling they
like without rerunning the experiments.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

__all__ = ["write_csv", "export_rows"]


def write_csv(
    path: Path, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write one CSV file; returns the number of data rows."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count


def export_rows(
    outdir: Path, key: str, rows: Sequence[Mapping[str, object]]
) -> Path:
    """Write ``rows`` as ``outdir/<key>.csv``; returns the path."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{key}.csv"
    headers = list(rows[0])
    write_csv(path, headers, [[row[h] for h in headers] for row in rows])
    return path
