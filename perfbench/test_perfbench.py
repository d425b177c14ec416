"""Fast tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import check_outputs
from tracer import self_times, summarize
from worker import MODES, RunState, _run_child, _trace
from workloads import WORKLOADS, Operation, make_workload

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    out = _run("--workload", workload, "--seed", "3", "--smoke", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_trace_prints_every_per_layer_metric():
    out = _run("--workload", "oracle-ensemble", "--seed", "3", "--smoke", "--trace", "1")
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The smoke operation is one N=16 ensemble: two full-system builds, one solve.
    assert metrics["ensemble.build_full_system.calls"]["value"] == 2
    assert metrics["ensemble.eigenfrequencies.calls"]["value"] == 1
    assert metrics["hopfield.calls"]["value"] == 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures-warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_seed_changes_values_and_order_but_not_sizes():
    for name in WORKLOADS:
        a, b = make_workload(name, 1), make_workload(name, 2)
        assert [(op.key, op.rows) for op in a.operations] == [(op.key, op.rows) for op in b.operations]
        assert [op.key for op in a.pass_order()] != [op.key for op in b.pass_order()]
    docs = [make_workload("oracle-ensemble", seed).operations[0].document["parameters"] for seed in (1, 2)]
    assert docs[0]["g_qed"] != docs[1]["g_qed"]
    assert docs[0]["n_max"] == docs[1]["n_max"]


def _write(tmp_path: Path, op: Operation) -> Path:
    from polariton_lab import run_scenario_document

    run = run_scenario_document(op.document, source_name=op.key, input_bytes=b"", out_dir=tmp_path, default_stem=op.key)
    return run.csv_path


@pytest.fixture
def small_op():
    return make_workload("bulk-grid", 1, smoke=True).operations[0]


def test_clean_outputs_pass_and_repeats_must_match(tmp_path, small_op):
    seen = {}
    assert check_outputs(small_op, _write(tmp_path, small_op), seen) == []
    assert check_outputs(small_op, _write(tmp_path, small_op), seen) == []
    seen[small_op.key] = {name: "0" * 64 for name in seen[small_op.key]}
    assert any("byte-identical" in p for p in check_outputs(small_op, _write(tmp_path, small_op), seen))


def test_corrupted_artifact_is_a_failed_check(tmp_path, small_op):
    csv_path = _write(tmp_path, small_op)
    svg_path = csv_path.with_suffix(".svg")
    svg_path.write_bytes(svg_path.read_bytes().replace(b"<svg", b"<SVG", 1))
    problems = check_outputs(small_op, csv_path, {})
    assert problems == [f"{svg_path.name} does not match its digest in the summary"]


def test_corrupted_digest_is_a_failed_check(tmp_path, small_op):
    csv_path = _write(tmp_path, small_op)
    summary_path = csv_path.with_suffix(".summary.json")
    summary = json.loads(summary_path.read_text())
    summary["outputs"][csv_path.name]["sha256"] = "f" * 64
    summary_path.write_text(json.dumps(summary))
    assert check_outputs(small_op, csv_path, {}) == [f"{csv_path.name} does not match its digest in the summary"]
    summary_path.write_text("{not json")
    assert check_outputs(small_op, csv_path, {})[0].startswith("check raised JSONDecodeError")


def test_wrong_row_count_is_a_failed_check(tmp_path, small_op):
    csv_path = _write(tmp_path, small_op)
    wrong = Operation(small_op.key, small_op.rows + 1, document=small_op.document, svg=True)
    assert "expected" in check_outputs(wrong, csv_path, {})[0]


def test_operation_that_raises_or_corrupts_is_counted(tmp_path, small_op):
    state = RunState(tmp_path)

    def raises(op, out_dir, count):
        raise RuntimeError("boom")

    def corrupts(op, out_dir, count):
        csv_path = _write(out_dir, op)
        csv_path.write_bytes(csv_path.read_bytes() + b"1\n")
        return csv_path

    latencies = []
    state.run([small_op], raises, latencies)
    state.run([small_op], corrupts, latencies)
    state.run([small_op], lambda op, out_dir, count: _write(out_dir, op), latencies)
    assert (state.attempted, state.failed, len(latencies)) == (3, 2, 1)
    assert "boom" in state.failures[0] and "digest" in state.failures[1]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "models.min_splitting", 0.0, 10.0, None, 1),
        (1, "models.eigenfrequencies", 1.0, 4.0, 0, 1),
        (2, "models.eigenfrequencies", 3.0, 5.0, 0, 1),
    ]
    assert self_times(spans) == {0: 6.0, 1: 3.0, 2: 2.0}
    layers = summarize(spans, {1: (-1.0, 12.0)})
    assert layers["models.calls"] == 3
    assert layers["models.eigenfrequencies.calls"] == 2
    assert layers["models.self_s"] == pytest.approx(11.0)
    assert layers["scenarios.self_s"] == pytest.approx(3.0)


def test_hung_child_is_killed_by_its_timeout():
    start = time.perf_counter()
    code, _, _ = _run_child([sys.executable, "-c", "import time; time.sleep(60)"], dict(os.environ), 0.5)
    assert code != 0
    assert time.perf_counter() - start < 30


class _TwoOps:
    def pass_order(self):
        return ["a", "b"]


def test_trace_interleaves_the_modes_and_takes_medians(tmp_path):
    order, rounds = [], iter([1, 7, 3])
    walls = {"default": 2.0, "serial": 1.0, "traced": 2.2}

    def new_round():
        calls = next(rounds)
        runners = {mode: (lambda op, mode=mode: order.append((op, mode)) or walls[mode]) for mode in MODES}
        return runners, lambda: ({"models.calls": calls}, ["units.to_ev"] if calls == 7 else [])

    result = _trace(_TwoOps(), RunState(tmp_path), new_round, 3)
    # Each operation runs in every mode back to back, and the first mode turns.
    assert order[:6] == [
        ("a", "default"), ("a", "serial"), ("a", "traced"),
        ("b", "serial"), ("b", "traced"), ("b", "default"),
    ]
    layers = result["layers"]
    assert layers["models.calls"] == 3
    assert layers["parallel.default_over_serial"] == pytest.approx(2.0)
    assert layers["trace.overhead_ratio"] == pytest.approx(1.1)
    assert layers["scenarios.csv_bytes"] == 0
    assert result["absent"] == ["units.to_ev"]
