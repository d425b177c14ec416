"""Outside-in span tracing of the polariton_lab layers.

The tracer wraps every function named in a layer module's ``__all__`` (and
``FullSystem.eigenfrequencies``) and rebinds the wrapper wherever a
``polariton_lab`` module holds the original, so calls made inside the
package -- ``full_vs_reduced_check`` calling ``build_full_system``, say --
are recorded too.  Nothing in the package itself is edited.

A span is ``(id, name, start, end, parent, op)``.  The parent is the
innermost open span on the same thread; spans opened on pool threads carry
the id of the operation in flight, which is sound because the benchmark
runs one operation at a time.  Spans are kept in memory and aggregated once
the traced pass is over.

Run as a script, it executes the ``polariton-lab`` command line under the
tracer and writes the spans of that process to a JSON file::

    python perfbench/tracer.py SPANS.json reproduce fig1e --out DIR
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

# Layer modules whose public functions are wrapped, by report prefix.
LAYERS = {
    "models": "polariton_lab.models",
    "driven": "polariton_lab.driven",
    "fields": "polariton_lab.fields",
    "hopfield": "polariton_lab.hopfield",
    "ensemble": "polariton_lab.ensemble",
    "material": "polariton_lab.material",
    "units": "polariton_lab.units",
    "parallel": "polariton_lab._parallel",
}
# Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
REPORTED_LAYERS = ("models", "driven", "fields", "hopfield", "ensemble", "material", "units")
# Kernels reported on their own, as ``<name>.calls`` and ``<name>.self_s``.
KERNELS = (
    "models.eigenfrequencies",
    "models.min_splitting",
    "hopfield.truncated_fock_spectrum",
    "hopfield.frame_equivalence_check",
    "ensemble.build_full_system",
    "ensemble.eigenfrequencies",
)
POOL_MAP = "parallel.ordered_map"
# FullSystem.eigenfrequencies is a method, so it is not in ``__all__``.
_METHODS = {"ensemble.eigenfrequencies": ("polariton_lab.ensemble", "FullSystem", "eigenfrequencies")}


class Tracer:
    """Collects spans for every wrapped layer function."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op)
        self.op = None
        self.absent = []
        self._originals = []  # (owner, attribute, original) for uninstall
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op))

        return traced

    def install(self) -> None:
        """Wrap the layer functions and rebind them across polariton_lab."""
        replacements = {}
        wrapped = set()
        missing = []
        for layer, module_name in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(layer)
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module_name:
                    replacements[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
                    wrapped.add(f"{layer}.{attr}")
        for name, (module_name, cls_name, attr) in _METHODS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            method = getattr(cls, attr, None)
            if inspect.isfunction(method):
                self._rebind(cls, attr, method, self._wrap(name, method))
                wrapped.add(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "polariton_lab" or module_name.startswith("polariton_lab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])
        self.absent = missing + [name for name in KERNELS + (POOL_MAP,) if name not in wrapped]

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the union of its children."""
    children = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _union_length(children.get(span_id, ()))
        for span_id, _, start, end, _, _ in spans
    }


def summarize(spans, op_walls: dict) -> dict:
    """Per-layer counts and times from one traced pass.

    ``op_walls`` maps each operation id to its ``(start, end)`` interval;
    the scenario layer's self time is that interval minus every span in it.
    """
    selfs = self_times(spans)
    out = {}
    for layer in REPORTED_LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for name in KERNELS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    out[f"{POOL_MAP}.calls"] = 0
    out[f"{POOL_MAP}.wall_s"] = 0.0
    per_op = {}
    for span_id, name, start, end, _, op in spans:
        layer = name.split(".", 1)[0]
        if layer in REPORTED_LAYERS:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += selfs[span_id]
        if name in KERNELS:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[span_id]
        if name == POOL_MAP:
            out[f"{POOL_MAP}.calls"] += 1
            out[f"{POOL_MAP}.wall_s"] += end - start
        per_op.setdefault(op, []).append((start, end))
    scenario_self = 0.0
    for op, (op_start, op_end) in op_walls.items():
        covered = [(max(s, op_start), min(e, op_end)) for s, e in per_op.get(op, ()) if e > op_start and s < op_end]
        scenario_self += (op_end - op_start) - _union_length(covered)
    out["scenarios.self_s"] = scenario_self
    return out


def _main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    from polariton_lab import cli

    tracer.install()
    tracer.op = 0
    start = time.perf_counter()
    code = cli.main(cli_args)
    end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "op": [start, end], "absent": tracer.absent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
