"""Numeric fingerprints of the 19 reproductions and the 10 sample scenarios.

``fingerprints.json`` holds, for every CSV column of every output:

* ``nan``: the exact NaN rows, as ``[start, stop)`` ranges;
* ``scale``: the largest finite magnitude;
* ``sum`` and ``sum_sq``: the correctly rounded (``math.fsum``) sum and sum of
  squares of the finite values;
* ``rows``: ``[row, value]`` at 16 evenly spaced rows and on each side of
  every NaN-mask boundary (the rows nearest each SpC cutoff), with ``null``
  for a NaN value.

Values are compared at 1e-12 relative to the column's ``scale``; the sums
aggregate ``n`` finite rows, so theirs is ``n`` times that (``scale**2`` for
the sum of squares).  A column that is zero throughout is compared exactly.
Values, not digests, so the pins survive another numpy or libm build.

A change that moves a figure on purpose rewrites the file with
``python tests/test_fingerprints.py`` and lists the moved cells.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import OUTPUT_NAMES, write_outputs

_FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
_RELATIVE = 1e-12
_SPACED_ROWS = 16


def _read_csv(path: Path):
    header, *lines = path.read_text().splitlines()
    cells = header.split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)
    return cells, values.reshape(len(lines), len(cells))


def _nan_ranges(mask) -> list:
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask.astype(np.int8), [0]])))
    return edges.reshape(-1, 2).tolist()


def _column_fingerprint(cell: str, col) -> dict:
    mask = np.isnan(col)
    finite = col[~mask].tolist()
    boundaries = np.flatnonzero(mask[1:] != mask[:-1])
    rows = set(np.linspace(0, len(col) - 1, _SPACED_ROWS).round().astype(int).tolist())
    rows.update(boundaries.tolist())
    rows.update((boundaries + 1).tolist())
    return {
        "name": cell,
        "nan": _nan_ranges(mask),
        "scale": max(map(abs, finite), default=0.0),
        "sum": math.fsum(finite),
        "sum_sq": math.fsum(v * v for v in finite),
        "rows": [[i, None if mask[i] else float(col[i])] for i in sorted(rows)],
    }


def _fingerprint(csv_path: Path) -> dict:
    cells, values = _read_csv(csv_path)
    return {
        "rows": len(values),
        "columns": [_column_fingerprint(cell, values[:, j]) for j, cell in enumerate(cells)],
    }


# absent only while the file is being written for the first time
_PINNED = json.loads(_FINGERPRINTS.read_text()) if _FINGERPRINTS.exists() else {}


def test_every_reproduction_and_sample_is_pinned():
    assert list(_PINNED) == OUTPUT_NAMES


@pytest.mark.parametrize("name", list(_PINNED))
def test_output_matches_its_fingerprint(inprocess_dir, name):
    pinned = _PINNED[name]
    cells, values = _read_csv(inprocess_dir / f"{name}.csv")
    assert cells == [column["name"] for column in pinned["columns"]]
    assert len(values) == pinned["rows"]
    for j, column in enumerate(pinned["columns"]):
        col, cell = values[:, j], column["name"]
        assert _nan_ranges(np.isnan(col)) == column["nan"], cell
        finite = col[~np.isnan(col)].tolist()
        tol = _RELATIVE * column["scale"]
        n = len(finite)
        assert max(map(abs, finite), default=0.0) == pytest.approx(column["scale"], rel=0, abs=tol), cell
        assert math.fsum(finite) == pytest.approx(column["sum"], rel=0, abs=n * tol), cell
        sum_sq = math.fsum(v * v for v in finite)
        assert sum_sq == pytest.approx(column["sum_sq"], rel=0, abs=n * tol * column["scale"]), cell
        for i, value in column["rows"]:
            if value is None:
                assert math.isnan(col[i]), (cell, i)
            else:
                assert col[i] == pytest.approx(value, rel=0, abs=tol), (cell, i)


def _write(out_dir: Path) -> None:
    """Rewrite ``fingerprints.json`` from the outputs of the tree on ``sys.path``."""
    write_outputs(out_dir)
    entries = {name: _fingerprint(out_dir / f"{name}.csv") for name in OUTPUT_NAMES}
    lines = []
    for name, entry in entries.items():
        columns = ",\n".join("    " + json.dumps(column) for column in entry["columns"])
        lines.append(f'  {json.dumps(name)}: {{"rows": {entry["rows"]}, "columns": [\n{columns}\n  ]}}')
    _FINGERPRINTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write(Path(scratch))
