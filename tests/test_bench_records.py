"""Every committed benchmark record at the repository root says what machine it was measured on."""

import json
from pathlib import Path

import pytest

_RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_there_are_benchmark_records():
    assert _RECORDS


@pytest.mark.parametrize("path", _RECORDS, ids=lambda path: path.name)
def test_benchmark_record_parses_and_names_its_machine(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    for key in ("cores", "cpu", "python", "numpy"):
        assert machine.get(key), f"{path.name}: machine record lacks {key!r}"
    assert isinstance(machine["cores"], int) and machine["cores"] >= 1
