"""Run the benchmark over several seeds and write a ``BENCH_*.json`` record.

Run from the root of a checkout::

    python3 perfbench/record.py --out perfbench/BENCH_baseline.json

Each of the four workloads runs ten times, with seeds 1 to 10, at the run
length ``BENCHMARK.json`` fixes; that includes ``bulk-grid``, which
``BENCHMARK.json`` does not gate.  For each end-to-end metric the record
keeps every value, the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median; the table printed
as it goes sets each spread against the metric's bound.  One traced run per
workload, with seed 1, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def spread_of(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)  # the middle quartile is the median
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    record = {
        "machine": {k: v for k, v in machine(SEEDS[0]).items() if k != "seed"},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    rows = []
    for workload in WORKLOADS:
        results = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            stats = spread_of(values)
            entry["end_to_end"][name] = {"unit": results[0]["metrics"][name]["unit"], **stats, "values": values}
            limit = f"bound {bounds[name]}" if workload in gated else "not gated"
            rows.append(f"{workload:<16} {name:<15} {stats['median']:>12.6g} spread {stats['spread']:.4f} {limit}")
        traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print("\n".join(rows[-len(bounds):]), flush=True)
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
