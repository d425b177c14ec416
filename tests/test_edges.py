"""The edge corpus: documents at the edges of the physics, each with the outcome it should have.

Each row of ``_EDGES`` names a document under ``tests/edges``, the exit code
that ``polariton-lab run`` should give it and a fragment of what it should
say: of the error message for a nonzero exit, of the summary for exit 0.  A
row whose wanted outcome is not met yet is a strict ``xfail`` naming the
ROADMAP item that will meet it; the change that meets it drops the marker.
Each run prints the document's exit code, deviation keys and count of CSV
rows that hold a NaN; ``pytest -rA --runxfail tests/test_edges.py`` shows
them for every row.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from polariton_lab import hopfield
from polariton_lab.cli import main

EDGES = Path(__file__).resolve().parent / "edges"


def _known_wrong(item):
    return pytest.mark.xfail(strict=True, reason=f"exits as wanted once ROADMAP item {item} is done")


_EDGES = [
    pytest.param("spc_near_instability.yaml", 3, "fock_ladder_deviation_eV", marks=_known_wrong("2(a) and 6")),
    pytest.param("deep_strong_moc.yaml", 3, "fock_ladder_deviation_eV", marks=_known_wrong("2(a) and 6")),
    pytest.param("ensemble_failing_check.yaml", 3, "max_rel_deviation", marks=_known_wrong("13")),
    pytest.param("rwa_strong.yaml", 0, "ground_state_energy_eV"),
    pytest.param("no_frame_partner.yaml", 3, "no dipole-gauge frame partner"),
    pytest.param("destabilizing_g_shift.yaml", 3, "destabilizes the collective mode"),
    pytest.param("overflowing_fit.yaml", 2, "parameters.fit.omega_lo", marks=_known_wrong("2(d)")),
    pytest.param("spc_sweep_across_cutoff.yaml", 0, "omega_minus_spc"),
]


def _report(name, code, out_dir):
    """Print the exit code, the deviation keys of the summary and CSV, and the CSV rows holding a NaN."""
    deviations, nan_rows = {}, None
    summary = out_dir / f"{Path(name).stem}.summary.json"
    if summary.exists():
        deviations = {key: value for key, value in json.loads(summary.read_text()).items() if "deviation" in key}
        with open(out_dir / f"{Path(name).stem}.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        values = [[float(value) for value in row] for row in rows]
        for i, column in enumerate(header):
            if "deviation" in column:
                deviations[column] = max(row[i] for row in values)
        nan_rows = sum(any(math.isnan(value) for value in row) for row in values)
    print(f"{name}: exit {code}, deviations {deviations}, NaN rows {nan_rows}")


@pytest.mark.parametrize("name, code, fragment", _EDGES)
def test_edge_document_exits_as_wanted(tmp_path, capsys, name, code, fragment):
    out_dir = tmp_path / "out"
    got = main(["run", str(EDGES / name), "--out", str(out_dir)])
    said = capsys.readouterr().err
    _report(name, got, out_dir)
    assert got == code
    if code:
        assert fragment in said
    else:
        assert fragment in (out_dir / f"{Path(name).stem}.summary.json").read_text()


def test_every_edge_document_has_a_row():
    assert sorted(path.name for path in EDGES.glob("*.yaml")) == sorted(row.values[0] for row in _EDGES)


def test_a_document_without_a_frame_partner_exits_before_the_fock_solve(tmp_path, capsys, monkeypatch):
    solves = []
    lowest_levels = hopfield._lowest_levels
    monkeypatch.setattr(hopfield, "_lowest_levels", lambda *args: solves.append(args) or lowest_levels(*args))
    assert main(["run", str(EDGES / "no_frame_partner.yaml"), "--out", str(tmp_path)]) == 3
    assert "no dipole-gauge frame partner" in capsys.readouterr().err
    assert solves == []
