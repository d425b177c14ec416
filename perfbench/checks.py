"""Checks on the artifacts of one benchmark operation.

``check_outputs`` returns a list of problems (empty when the operation is
correct) and never raises: a corrupt, missing or unparsable artifact is a
failed operation, not a crashed benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Acceptance pins, as absolute or relative tolerances.
MOC_SPLITTING_RTOL = 1e-12
ORACLE_DEVIATION_MAX = 1e-9
FRAME_DEVIATION_MAX = 1e-9
FOCK_VS_QUARTIC_ATOL = 1e-5


def _column(csv: bytes, name: str) -> list:
    lines = csv.decode("utf-8").splitlines()
    index = lines[0].split(",").index(name)
    return [float(line.split(",")[index]) for line in lines[1:]]


def _lower_quartic_root(params: dict) -> float:
    # Called directly: the summary's quartic keys are labeled the wrong way
    # round, so the lower root is taken as the smaller of the two.
    from polariton_lab.hopfield import HopfieldParams, hopfield_quartic_eigen

    g = params["g_qed"]
    d = params["D"]
    diamagnetic = {"SpC": 0.0, "MoC": g * g / params["omega_mat"]}.get(d, d)
    roots = hopfield_quartic_eigen(HopfieldParams(params["omega_cav"], params["omega_mat"], g, diamagnetic))
    return min(roots)


def _pins(op, summary: dict, csv: bytes) -> list:
    problems = []
    if op.figure == "fig1e":
        for g, split in zip(_column(csv, "g/omega_mat (1)"), _column(csv, "Omega_min_mc (omega_mat)")):
            if g > 0 and abs(split - 2 * g) > MOC_SPLITTING_RTOL * 2 * g:
                problems.append(f"MoC minimum splitting {split!r} is not 2g at g={g!r}")
    params = (op.document or {}).get("parameters", {})
    kind = (op.document or {}).get("kind")
    if kind == "oracle" and params.get("flavor") == "polarizability":
        if not summary["max_oracle_deviation"] <= ORACLE_DEVIATION_MAX:
            problems.append(f"max_oracle_deviation {summary['max_oracle_deviation']!r}")
    if kind == "oracle" and params.get("flavor") == "quantum":
        if params.get("frame_check") and not summary["frame_deviation_eV"] <= FRAME_DEVIATION_MAX:
            problems.append(f"frame_deviation_eV {summary['frame_deviation_eV']!r}")
        lowest = _column(csv, "excitation_energy (eV)")[0]
        root = _lower_quartic_root(params)
        if not abs(lowest - root) <= FOCK_VS_QUARTIC_ATOL:
            problems.append(f"lowest Fock level {lowest!r} is not the lower quartic root {root!r}")
    if kind == "ensemble" and _column(csv, "passed (1)") != [1.0]:
        problems.append("ensemble full-vs-reduced check did not pass")
    return problems


def check_outputs(op, csv_path: Path, seen: dict) -> list:
    """Problems with the artifacts written for ``op`` next to ``csv_path``.

    ``seen`` maps an operation key to the digests of its first run; a repeat
    of the same input must reproduce them byte for byte.
    """
    try:
        csv_path = Path(csv_path)
        summary = json.loads(csv_path.with_suffix(".summary.json").read_bytes())
        problems = []
        digests = {}
        for name, record in sorted(summary["outputs"].items()):
            data = (csv_path.parent / name).read_bytes()
            digests[name] = hashlib.sha256(data).hexdigest()
            if digests[name] != record["sha256"] or len(data) != record["bytes"]:
                problems.append(f"{name} does not match its digest in the summary")
        if csv_path.name not in digests:
            problems.append(f"summary lists no {csv_path.name}")
        if op.svg and csv_path.with_suffix(".svg").name not in digests:
            problems.append("summary lists no SVG")
        csv = csv_path.read_bytes()
        rows = csv.count(b"\n") - 1
        if rows != op.rows or summary["rows"] != op.rows:
            problems.append(f"{rows} CSV rows and {summary['rows']} in the summary, expected {op.rows}")
        if not problems and seen.setdefault(op.key, digests) != digests:
            problems.append(f"repeat of {op.key} is not byte-identical to its first run")
        return problems + _pins(op, summary, csv)
    except Exception as exc:  # any unreadable artifact is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]
