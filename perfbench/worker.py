"""One benchmark run in a fresh interpreter; started by ``run.py``.

The worker imports the package (except for ``cli-cold``, whose operations
each import it themselves), generates its inputs, prints ``ready`` and, with
``--setup-only``, exits: ``run.py`` times that interval as the set-up.  It
then runs whole passes over the workload's operations, a closed loop with
one client, until ``--seconds`` have passed, and prints one JSON line with
the raw samples.  With ``--trace`` it instead runs a few passes for the
layer trace, each operation once with the default thread pool, once with
``POLARITON_LAB_THREADS=1`` and once traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import check_outputs
from tracer import Tracer, summarize
from workloads import MIN_PASSES, make_workload

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120.0
THREADS_VAR = "POLARITON_LAB_THREADS"
MAX_FAILURE_MESSAGES = 5
# The traced run's modes, and its rounds: a cli-cold round starts three
# processes per figure (about 55 s), so it makes one to stay well within
# the run's deadline.
MODES = ("default", "serial", "traced")
TRACE_ROUNDS = {"cli-cold": 1}
DEFAULT_TRACE_ROUNDS = 3


def _run_child(command: list, env: dict, timeout: float) -> tuple[int, bytes, float]:
    """Run ``command``, killing it after ``timeout`` s.

    Return its exit code, its standard error and its peak RSS in MiB.
    """
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


class RunState:
    """Counters shared by the passes of one run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_child_rss_mb = 0.0
        self.bytes = {".csv": 0, ".svg": 0}
        self._count = 0

    def run(self, ops, perform, latencies=None, on_op=None) -> float:
        """Run ``ops`` once each, checking every output; return the wall time."""
        start = time.perf_counter()
        for op in ops:
            self._count += 1
            out_dir = self.workdir / f"op{self._count}"
            t0 = time.perf_counter()
            try:
                csv_path = perform(op, out_dir, self._count)
                problems = check_outputs(op, csv_path, self.seen)
            except Exception as exc:  # a failed operation never stops the run
                problems = [f"{type(exc).__name__}: {exc}"]
            latency = time.perf_counter() - t0
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_MESSAGES:
                    self.failures.append(f"{op.key}: {'; '.join(problems)}")
            elif latencies is not None:
                latencies.append(latency)
            if on_op is not None and out_dir.is_dir():
                on_op(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
        return time.perf_counter() - start

    def count_bytes(self, out_dir: Path) -> None:
        for path in out_dir.iterdir():
            if path.suffix in self.bytes:
                self.bytes[path.suffix] += path.stat().st_size


def _in_process(op, out_dir: Path, count: int) -> Path:
    from polariton_lab import reproduce_figure, run_scenario_document

    if op.figure is not None:
        return reproduce_figure(op.figure, out_dir=out_dir).csv_path
    canonical = json.dumps(op.document, sort_keys=True).encode("utf-8")
    run = run_scenario_document(
        op.document, source_name=op.key, input_bytes=canonical, out_dir=out_dir, default_stem=op.key
    )
    return run.csv_path


def _cli_performer(state: RunState, env: dict, spans_dir: Path | None = None):
    """Run each figure as a fresh ``python -m polariton_lab.cli`` process."""

    def perform(op, out_dir: Path, count: int) -> Path:
        if spans_dir is None:
            command = [sys.executable, "-m", "polariton_lab.cli"]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_dir / f"{count}.json")]
        command += ["reproduce", op.figure, "--out", str(out_dir)]
        code, stderr, rss_mb = _run_child(command, env, CLI_TIMEOUT_S)
        state.peak_child_rss_mb = max(state.peak_child_rss_mb, rss_mb)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}")
        return out_dir / f"{op.figure}.csv"

    return perform


def measure(workload, perform, state: RunState, seconds: float) -> dict:
    """Whole passes until ``seconds`` have passed, at least the workload's minimum.

    A further pass starts only while the run would end nearer ``seconds``
    with it than without it, so every run measures whole passes.
    """
    latencies, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES[workload.name] or (
        time.perf_counter() - start + statistics.fmean(walls) / 2 < seconds
    ):
        walls.append(state.run(workload.pass_order(), perform, latencies))
    return {"latencies": latencies, "pass_walls": walls}


def _median(values: list):
    value = statistics.median(values)
    return int(value) if all(isinstance(v, int) for v in values) else value


def _trace(workload, state: RunState, new_round, rounds: int) -> dict:
    """``rounds`` passes, each operation run in every mode back to back.

    ``new_round()`` returns the round's runners, one per mode of ``MODES``,
    each running one operation and returning its wall time, and a function
    that gives the round's layer metrics once its pass is over.  The modes
    take turns going first, and sharing each operation keeps a drift in
    machine speed out of the ratios between them.  Every metric is the
    median over rounds.
    """
    rounds_out, absent = [], set()
    for _ in range(rounds):
        runners, finish = new_round()
        walls = dict.fromkeys(MODES, 0.0)
        before = dict(state.bytes)
        for i, op in enumerate(workload.pass_order()):
            for k in range(len(MODES)):
                mode = MODES[(i + k) % len(MODES)]
                walls[mode] += runners[mode](op)
        layers, missing = finish()
        absent.update(missing)
        layers["scenarios.csv_bytes"] = state.bytes[".csv"] - before[".csv"]
        layers["scenarios.svg_bytes"] = state.bytes[".svg"] - before[".svg"]
        layers["parallel.default_over_serial"] = walls["default"] / walls["serial"]
        layers["trace.overhead_ratio"] = walls["traced"] / walls["default"]
        rounds_out.append(layers)
    return {
        "layers": {name: _median([r[name] for r in rounds_out]) for name in rounds_out[0]},
        "absent": sorted(absent),
    }


def _warm_round(state: RunState):
    """Runners for one in-process round: default pool, serial, traced."""
    tracer = Tracer()
    op_walls = {}

    def traced_op(op, out_dir, count):
        tracer.op = count
        t0 = time.perf_counter()
        try:
            return _in_process(op, out_dir, count)
        finally:
            op_walls[count] = (t0, time.perf_counter())

    def default(op):
        return state.run([op], _in_process)

    def serial(op):
        os.environ[THREADS_VAR] = "1"
        try:
            return state.run([op], _in_process)
        finally:
            del os.environ[THREADS_VAR]

    def traced(op):
        tracer.install()
        try:
            return state.run([op], traced_op, on_op=state.count_bytes)
        finally:
            tracer.uninstall()

    def finish():
        return summarize(tracer.spans, op_walls), tracer.absent

    return {"default": default, "serial": serial, "traced": traced}, finish


def _cli_round(state: RunState, env: dict):
    """Runners for one round of fresh processes: default pool, serial, traced."""
    spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=state.workdir))

    def runner(perform, on_op=None):
        return lambda op: state.run([op], perform, on_op=on_op)

    runners = {
        "default": runner(_cli_performer(state, env)),
        "serial": runner(_cli_performer(state, {**env, THREADS_VAR: "1"})),
        "traced": runner(_cli_performer(state, env, spans_dir), state.count_bytes),
    }

    def finish():
        layers, absent = {}, set()
        for path in sorted(spans_dir.iterdir()):
            record = json.loads(path.read_text(encoding="utf-8"))
            absent.update(record["absent"])
            for name, value in summarize(record["spans"], {0: tuple(record["op"])}).items():
                layers[name] = layers.get(name, 0) + value
        shutil.rmtree(spans_dir, ignore_errors=True)
        return layers, absent

    return runners, finish


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    cold = args.workload == "cli-cold"
    if not cold:
        import polariton_lab  # noqa: F401  (the import is part of the set-up)
    workload = make_workload(args.workload, args.seed, smoke=args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    state = RunState(workdir)
    try:
        if args.trace:
            rounds = TRACE_ROUNDS.get(args.workload, DEFAULT_TRACE_ROUNDS)
            if cold:
                env = dict(os.environ)
                result = _trace(workload, state, lambda: _cli_round(state, env), rounds)
            else:
                state.run(workload.pass_order(), _in_process)  # warm-up, untimed
                result = _trace(workload, state, lambda: _warm_round(state), rounds)
        else:
            perform = _cli_performer(state, dict(os.environ)) if cold else _in_process
            result = measure(workload, perform, state, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        attempted=state.attempted,
        failed=state.failed,
        failures=state.failures,
        peak_rss_mb=state.peak_child_rss_mb if cold else own_rss_mb,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
