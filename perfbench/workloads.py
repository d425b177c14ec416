"""Seeded inputs for the four benchmark workloads.

Every workload is a list of operations.  One *pass* runs each operation
once, in an order drawn from the seed.  The seed varies parameter values
(couplings, detunings, lattice orientation) and the order, never a grid
length, ``n_max`` or a lattice size, so every seed asks for the same work.

This module imports nothing from ``polariton_lab``: it only builds plain
dictionaries, so ``cli-cold`` can generate its inputs without the import
that each of its operations pays for itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-cold", "figures-warm", "oracle-ensemble", "bulk-grid")

# The 19 canned figure ids and the rows each one's CSV must have.
FIGURE_ROWS = {
    "fig1c": 601, "fig1d": 601, "fig1e": 251, "fig2b": 1501, "fig2c": 600,
    "fig2d": 600, "fig3b": 1601, "fig3c": 1201, "fig3d": 1201, "fig3e": 1201,
    "fig4b": 1200, "figS1a": 601, "figS1b": 601, "figS1c": 251, "figS2": 601,
    "figS3a": 501, "figS3b": 501, "figS3c": 501, "figS3d": 501,
}

FOCK_N_MAX = 40
POLARIZABILITY_POINTS = 1201
# Lattice shapes for N = 16, 128 and 500 dipoles (500 is the package's cap).
LATTICE_SHAPES = ((4, 4, 1), (4, 4, 8), (5, 5, 20))
# (kind, rows).  Five operations whose times are well apart in the middle,
# so the median always falls on the 100k-row permittivity; the 50k-row
# dispersion document carries nine series.
BULK_OPERATIONS = (
    ("permittivity", 50_000),
    ("couplings", 50_000),
    ("permittivity", 100_000),
    ("permittivity", 200_000),
    ("dispersion", 50_000),
)

# Passes a run makes at least: two cold passes give every figure a repeat.
MIN_PASSES = {"cli-cold": 2, "figures-warm": 1, "oracle-ensemble": 1, "bulk-grid": 1}
# The tail percentile of each workload: the highest whole-5 percentile that
# leaves at least ten samples beyond it at the passes a 20 s run makes on
# the reference machine (cli-cold 2, figures-warm 5, oracle-ensemble 4).
# bulk-grid takes too few samples for that; its p90 is its slowest
# operation.  p times the operations in a pass is never a whole number, so
# the nearest-rank percentile falls on the same operation for any number of
# whole passes.
TAIL_PERCENTILE = {"cli-cold": 70, "figures-warm": 85, "oracle-ensemble": 70, "bulk-grid": 90}


@dataclass(frozen=True)
class Operation:
    """One unit of work: a figure id or a scenario document.

    ``key`` names the input; two operations with the same key must write
    byte-identical artifacts.  ``rows`` is the row count the CSV must have.
    """

    key: str
    rows: int
    figure: str | None = None
    document: dict | None = None
    svg: bool = False


@dataclass
class Workload:
    name: str
    operations: list
    rng: random.Random = field(repr=False)

    def pass_order(self) -> list:
        """The operations of the next pass, shuffled by the seeded stream."""
        order = list(self.operations)
        self.rng.shuffle(order)
        return order


def _figures() -> list:
    return [Operation(key=fid, rows=rows, figure=fid) for fid, rows in FIGURE_ROWS.items()]


def _quantum_doc(rng: random.Random, frame_check: bool) -> dict:
    return {
        "kind": "oracle",
        "schema": 1,
        "parameters": {
            "flavor": "quantum",
            "omega_cav": rng.uniform(0.9, 1.1),
            "omega_mat": 1.0,
            "g_qed": rng.uniform(0.1, 0.3),
            "D": rng.choice(("SpC", "MoC")),
            "n_max": FOCK_N_MAX,
            "n_levels": 5,
            "frame_check": frame_check,
        },
    }


def _polarizability_doc(rng: random.Random) -> dict:
    return {
        "kind": "oracle",
        "schema": 1,
        "parameters": {
            "flavor": "polarizability",
            "omega_cav": 3.0,
            "omega_mat": 3.0 + rng.uniform(-0.1, 0.1),
            "kappa": 0.020,
            "gamma": 0.010,
            "f_cav": 18879025.0,
            "f_mat": 14099.1876,
            "r_cav": [0.0, 0.0, 0.0],
            "r_mat": [rng.uniform(6.0, 8.0), 0.0, 0.0],
            "E_inc": 1.0,
            "omega_grid": {"start": 2.4, "stop": 3.6, "num": POLARIZABILITY_POINTS},
        },
    }


def _ensemble_doc(rng: random.Random, shape: tuple, dipole_dipole: bool) -> dict:
    angle = rng.uniform(0.0, math.pi)
    return {
        "kind": "ensemble",
        "schema": 1,
        "parameters": {
            "cavity": {"L_cav": 206.64, "lateral_period": 60.0, "modes": [{"n": 1}]},
            "lattice": {
                "shape": list(shape),
                "spacing": 10.0,
                "f_dip": 14099.1876,
                "omega_dip": 3.0 + rng.uniform(-0.05, 0.05),
                "orientation": [math.cos(angle), math.sin(angle), 0.0],
            },
            "mode": {"n": 1},
            "include_dipole_dipole": dipole_dipole,
            "tolerance": 1e-3,
        },
    }


def _oracle_ensemble(rng: random.Random) -> list:
    ops = [
        Operation("quantum", 5, document=_quantum_doc(rng, frame_check=False)),
        Operation("quantum-frame", 5, document=_quantum_doc(rng, frame_check=True)),
        Operation("polarizability", POLARIZABILITY_POINTS, document=_polarizability_doc(rng)),
    ]
    for shape in LATTICE_SHAPES:
        n = math.prod(shape)
        for dd in (False, True):
            key = f"ensemble-N{n}-{'dd' if dd else 'nodd'}"
            ops.append(Operation(key, 1, document=_ensemble_doc(rng, shape, dd)))
    return ops


def _permittivity_doc(rng: random.Random, rows: int) -> dict:
    return {
        "kind": "permittivity",
        "schema": 1,
        "parameters": {
            "models": ["MoC", "SpC"],
            "Omega_mat": 1.0,
            "G": rng.uniform(0.1, 0.4),
            "omega_grid": {"start": 0.0, "stop": 3.0, "num": rows, "sampling": "midpoints"},
        },
        "output": {"format": "svg"},
    }


def _dispersion_doc(rng: random.Random, rows: int, content: str) -> dict:
    return {
        "kind": "dispersion",
        "schema": 1,
        "parameters": {
            "models": ["MoC", "A1", "A2"],
            "omega_to": 0.1,
            "G_over_omega_to": rng.uniform(0.1, 0.4),
            "k_grid": {"start": 0.0, "stop": 10.0, "num": rows},
            "content": content,
        },
        "output": {"format": "svg"},
    }


def _bulk_grid(rng: random.Random) -> list:
    ops = []
    for kind, rows in BULK_OPERATIONS:
        if kind == "permittivity":
            document = _permittivity_doc(rng, rows)
        else:
            document = _dispersion_doc(rng, rows, kind)
        ops.append(Operation(f"{kind}-{rows}", rows, document=document, svg=True))
    return ops


def _smoke(name: str, rng: random.Random) -> list:
    """One small operation of the workload's kind."""
    if name == "oracle-ensemble":
        return [Operation("ensemble-N16-dd", 1, document=_ensemble_doc(rng, LATTICE_SHAPES[0], True))]
    if name == "bulk-grid":
        return [Operation("permittivity-2000", 2000, document=_permittivity_doc(rng, 2000), svg=True)]
    return [Operation("figS3a", FIGURE_ROWS["figS3a"], figure="figS3a")]


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The operations of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    if smoke:
        ops = _smoke(name, rng)
    elif name == "oracle-ensemble":
        ops = _oracle_ensemble(rng)
    elif name == "bulk-grid":
        ops = _bulk_grid(rng)
    else:
        ops = _figures()
    return Workload(name, ops, rng)
