"""Every committed benchmark record at the repository root says what machine it was measured on."""

import json
from pathlib import Path

import pytest

_RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))
# records written before every record had to name the BLAS kernel it ran on (ROADMAP item 1)
_BEFORE_BLAS_CORE = {
    "BENCH_assembly.json",
    "BENCH_cli_gc.json",
    "BENCH_cli_import.json",
    "BENCH_csv_text.json",
    "BENCH_driven_closed_form.json",
    "BENCH_ensemble_gauge.json",
    "BENCH_ensemble_pairs.json",
    "BENCH_fock_band.json",
    "BENCH_fock_idle.json",
    "BENCH_fock_oracle.json",
    "BENCH_fock_share.json",
    "BENCH_fock_start.json",
}


def test_there_are_benchmark_records():
    assert _RECORDS


@pytest.mark.parametrize("path", _RECORDS, ids=lambda path: path.name)
def test_benchmark_record_parses_and_names_its_machine(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    for key in ("cores", "cpu", "python", "numpy"):
        assert machine.get(key), f"{path.name}: machine record lacks {key!r}"
    assert isinstance(machine["cores"], int) and machine["cores"] >= 1
    if path.name not in _BEFORE_BLAS_CORE:
        # the OpenBLAS kernel moves timings and last bits alike
        assert machine.get("blas_core"), f"{path.name}: machine record lacks 'blas_core'"
