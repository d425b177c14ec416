"""Benchmark of polariton-lab: four workloads, checked outputs, layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures-warm --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one run; with
``--trace 1`` the per-layer metrics of a separate traced run.  Human-readable
lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs one
small operation instead of the workload.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import TAIL_PERCENTILE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SCRATCH = ROOT / ".perfbench_tmp"
# Fresh interpreters timed for ``setup_s``.  A cli-cold set-up is only an
# interpreter start (about 0.09 s), the noisiest quantity measured, so it
# takes more of them.
SETUP_SAMPLES = {"cli-cold": 19}
DEFAULT_SETUP_SAMPLES = 9
PROBE_SAMPLES = 3
DEADLINE_S = 170.0


def _environment() -> dict:
    env = dict(os.environ)
    env.pop("POLARITON_LAB_THREADS", None)  # measure the default pool
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def machine(seed: int) -> dict:
    """The machine and environment a result was measured on."""
    return {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("pyyaml"),
        "commit": _commit(),
        "seed": seed,
    }


class Worker:
    """A ``worker.py`` process; times its start until it prints ``ready``."""

    def __init__(self, args: list, env: dict, deadline: float):
        self.start = time.perf_counter()
        # In a process group of its own, so the deadline also ends the
        # processes the worker started.
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self._kill)
        self._timer.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.start
        self.ready = ready.strip() == "ready"

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> dict | None:
        """Wait for the worker; its last line of output as JSON, or None."""
        try:
            lines = self.proc.stdout.read().splitlines()
            self.proc.stdout.close()
            code = self.proc.wait()
        finally:
            self._timer.cancel()
        if code != 0 or not self.ready:
            return None
        return json.loads(lines[-1]) if lines else {}


def _setup_probes(count: int, common: list, env: dict, deadline: float) -> list | None:
    """Set-up times of ``count`` workers that exit once ready; None if one fails."""
    times = []
    for _ in range(count):
        probe = Worker(common + ["--setup-only"], env, deadline)
        times.append(probe.setup_s)
        if probe.finish() is None:
            return None
    return times


def _probe(code: str, env: dict, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )


def _scipy_import_s(stderr: str) -> float:
    """Cumulative ``scipy.linalg`` time from ``-X importtime`` output; 0 if never imported."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.linalg":
            return int(fields[1]) / 1e6
    return 0.0


def cli_probes(env: dict) -> dict:
    """Start-up costs of the command line, each in fresh interpreters."""
    interpreter, imports, scipy = [], [], []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        _probe("pass", env)
        interpreter.append(time.perf_counter() - t0)
        timed = "import time; t = time.perf_counter(); import polariton_lab.cli; print(time.perf_counter() - t)"
        imports.append(float(_probe(timed, env).stdout))
        scipy.append(_scipy_import_s(_probe("import polariton_lab.cli", env, ("-X", "importtime")).stderr))
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(imports),
        "cli.import_scipy_s": statistics.median(scipy),
    }


def nearest_rank(values: list, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def end_to_end(result: dict, setup: list, workload: str) -> tuple[dict, list]:
    """The six end-to-end metrics, and a note on how each was taken."""
    latencies, walls = result["latencies"], result["pass_walls"]
    ok = result["attempted"] - result["failed"]
    p = TAIL_PERCENTILE[workload]
    tail = nearest_rank(latencies, p) if latencies else math.nan
    beyond = sum(1 for v in latencies if v > tail)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "ops_per_s": (
            ok / len(walls) / statistics.median(walls),
            "1/s",
            f"checked operations per pass over the median of {len(walls)} whole passes; {ok} in {sum(walls):.2f} s",
        ),
        "latency_p50_s": (statistics.median(latencies) if latencies else math.nan, "s", f"{len(latencies)} samples"),
        "latency_tail_s": (tail, "s", f"p{p} of {len(latencies)} samples, {beyond} beyond it"),
        "success_ratio": (ok / result["attempted"], "1", f"{ok} of {result['attempted']} operations passed"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", "largest child process" if workload == "cli-cold" else "worker process"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, [
        f"{k:<16} {v:>12.6g} {u:<4} {note}" for k, (v, u, note) in metrics.items()
    ]


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bytes"):
        return "B"
    return "s" if name.endswith("_s") else "1"


def per_layer(result: dict, probes: dict) -> tuple[dict, list]:
    layers = {**result["layers"], **probes}
    metrics, lines = {}, []
    for name, value in layers.items():
        metrics[name] = {"value": value, "unit": _unit(name)}
        lines.append(f"{name:<40} {value:>14.6g} {_unit(name)}")
    for name in result["absent"]:
        lines.append(f"{name:<40} {'absent':>14} (no such function at this commit)")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polariton-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small operation instead of the workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    seconds = 0.0 if args.smoke else args.seconds

    if not (ROOT / "src" / "polariton_lab" / "__init__.py").is_file():
        print(f"no polariton_lab package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = _environment()
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    common += ["--smoke"] if args.smoke else []
    info = machine(args.seed)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    try:
        if args.trace:
            probes = cli_probes(env)
            worker = Worker(common + ["--trace"], env, deadline)
            result = worker.finish()
        else:
            # The measuring worker is one set-up sample; the others are split
            # between before and after it, so a slow spell of the machine
            # at either end moves their median less.
            probes = (1 if args.smoke else SETUP_SAMPLES.get(args.workload, DEFAULT_SETUP_SAMPLES)) - 1
            before = _setup_probes(probes // 2, common, env, deadline)
            worker = Worker(common + ["--seconds", str(seconds)], env, deadline)
            result = worker.finish()
            after = _setup_probes(probes - probes // 2, common, env, deadline)
            if before is None or after is None:
                print("set-up probe failed", file=sys.stderr)
                return 1
            setup = before + [worker.setup_s] + after
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("the benchmark worker failed", file=sys.stderr)
        return 1
    for message in result["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    if args.trace:
        metrics, lines = per_layer(result, probes)
    else:
        metrics, lines = end_to_end(result, setup, args.workload)
    print("\n".join(lines))
    correct = result["failed"] == 0 and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
