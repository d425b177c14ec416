"""Scenario documents, figure registry, and deterministic artifact output.

A scenario is a YAML mapping with a ``kind`` selecting one of the nine
drivers below, a ``parameters`` block mirroring the corresponding module
types, and an optional ``output`` block.  Validation is strict: unknown keys
are rejected with their full key path, so a typo never silently falls back
to a default.  Every scenario is deterministic end to end -- there is no RNG
anywhere in the pipeline -- and the CSV artifacts are written atomically with
a fixed dialect (comma separator, LF line endings, 17 significant digits),
so two runs of the same document are byte-identical.

``FIGURES`` maps the canned figure ids understood by ``reproduce`` onto
scenario documents with the published parameterization baked in.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from ._version import __version__
from .driven import (
    DriveSpec,
    driven_mc,
    driven_spc,
    polarizability_oracle,
    scattering_cross_section,
)
from .ensemble import FabryPerotSpec, build_full_system, cubic_dipole_lattice, full_vs_reduced_check
from .exceptions import PolaritonError, SchemaError
from .fields import (
    BoxCavityScene,
    NanoparticleScene,
    contribution_fractions,
    dielectric_field_arrays,
    quasistatic_field_arrays,
)
from .hopfield import (
    HopfieldParams,
    frame_equivalence_check,
    hopfield_quartic_eigen,
    truncated_fock_spectrum,
)
from .material import (
    PermittivityModel,
    PermittivityVariant,
    bulk_dispersion,
    coupling_profiles,
    permittivity_mc,
    permittivity_spc,
    reststrahlen_band,
    reststrahlen_fit,
)
from .models import (
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    branch_frequencies,
    determinant_residual,
    dressed_parameters,
    eigenfrequencies,
    eigenvector_ratio,
    min_splitting,
)
from .units import UNITS, OscillatorStrength, coupling_dipole_dipole

__all__ = [
    "SCHEMA_VERSION",
    "FIGURE_IDS",
    "SCENARIO_KINDS",
    "KIND_OPERATIONS",
    "ScenarioRun",
    "load_scenario_file",
    "run_scenario_document",
    "run_scenario_file",
    "reproduce_figure",
    "figure_document",
]

SCHEMA_VERSION = 1

_MISSING = object()


# --------------------------------------------------------------------------
# schema validation helpers


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path or "(top level)", f"expected a mapping, got {type(value).__name__}")
    return value


def _pop(mapping: dict, key: str, path: str, default=_MISSING):
    if key in mapping:
        return mapping.pop(key)
    if default is _MISSING:
        raise SchemaError(_join(path, key), "missing required key")
    return default


def _reject_unknown(mapping: dict, path: str) -> None:
    if mapping:
        key = sorted(str(k) for k in mapping)[0]
        raise SchemaError(_join(path, key), "unknown key")


def _number(value, path: str, *, minimum=None, exclusive_minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {v}")
    if exclusive_minimum is not None and v <= exclusive_minimum:
        raise SchemaError(path, f"must be > {exclusive_minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {v}")
    return v


def _integer(value, path: str, *, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {value}")
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected a boolean, got {value!r}")
    return value


def _string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise SchemaError(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _vector3(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SchemaError(path, f"expected a 3-component vector, got {value!r}")
    return tuple(_number(v, _join(path, str(i))) for i, v in enumerate(value))


_MAX_GRID_POINTS = 200_001


def _grid(value, path: str, *, minimum=None, exclusive_minimum=None) -> np.ndarray:
    m = dict(_as_mapping(value, path))
    start = _number(_pop(m, "start", path), _join(path, "start"))
    stop = _number(_pop(m, "stop", path), _join(path, "stop"))
    num = _integer(_pop(m, "num", path), _join(path, "num"), minimum=1, maximum=_MAX_GRID_POINTS)
    sampling = _string(
        _pop(m, "sampling", path, "points"),
        _join(path, "sampling"),
        choices=("points", "midpoints"),
    )
    _reject_unknown(m, path)
    if stop < start:
        raise SchemaError(_join(path, "stop"), f"must be >= start ({start}), got {stop}")
    if sampling == "points":
        if num == 1:
            grid = np.array([start])
        else:
            grid = np.linspace(start, stop, num)
    else:
        grid = start + (stop - start) * (np.arange(num) + 0.5) / num
    lo = float(grid[0])
    if minimum is not None and lo < minimum:
        raise SchemaError(path, f"grid values must be >= {minimum}, got {lo}")
    if exclusive_minimum is not None and lo <= exclusive_minimum:
        raise SchemaError(path, f"grid values must be > {exclusive_minimum}, got {lo}")
    return grid


_VARIANTS = {
    "SpC": ModelVariant.SPC,
    "MoC": ModelVariant.MOC,
    "Linearized": ModelVariant.LINEARIZED,
}
_VARIANT_TAGS = {"SpC": "spc", "MoC": "mc", "Linearized": "lin"}
_ALTERNATIVES = {
    "A1": (ModelVariant.MOC, ModelVariant.ALT_COULOMB_DRESSED_CAVITY),
    "A2": (ModelVariant.MOC, ModelVariant.ALT_DIPOLE_DRESSED_MATTER),
    "A3": (ModelVariant.SPC, ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY),
}
_BRANCHES = {"upper": +1, "lower": -1}


def _name_list(value, path: str, choices, *, nonempty=True) -> list:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(path, f"expected a list, got {value!r}")
    if nonempty and not value:
        raise SchemaError(path, "list must not be empty")
    names = [_string(v, _join(path, str(i)), choices=choices) for i, v in enumerate(value)]
    if len(set(names)) != len(names):
        raise SchemaError(path, f"duplicate entries in {names}")
    return names


def _reduced(f_value: float) -> float:
    return OscillatorStrength(f_value).reduced(UNITS)


# --------------------------------------------------------------------------
# result table


@dataclass
class _Table:
    columns: list  # list of (header cell, 1-D value sequence)
    extras: dict = field(default_factory=dict)

    def n_rows(self) -> int:
        return len(self.columns[0][1])


_DET_RESIDUAL_BOUND = 1e-8


def _check_det_residual(variant: ModelVariant, omega_cav, omega_mat, g, omega, label: str) -> None:
    """Assert the frequency-domain determinant vanishes at every eigenfrequency.

    Masked (NaN) points are skipped; the error names the first sweep row
    that fails.
    """
    residual = determinant_residual(variant, omega_cav, omega_mat, g, omega)
    bad = np.flatnonzero(residual > _DET_RESIDUAL_BOUND)
    if bad.size:
        i = int(bad[0])
        raise PolaritonError(
            f"internal inconsistency: {label} frequency-domain determinant residual "
            f"{residual[i]:.3e} exceeds {_DET_RESIDUAL_BOUND:g} at eigenfrequency "
            f"{omega[i]} (sweep row {i})"
        )


# --------------------------------------------------------------------------
# kind: eigen_sweep


def _coupling_spec(value, path: str) -> tuple:
    m = dict(_as_mapping(value, path))
    scaling = _string(
        _pop(m, "scaling", path, "fixed"), _join(path, "scaling"), choices=("fixed", "geometric")
    )
    strength = _number(_pop(m, "value", path), _join(path, "value"), minimum=0.0)
    _reject_unknown(m, path)
    return scaling, strength


def _coupling_value(spec: tuple, omega_cav: np.ndarray, omega_mat: float):
    scaling, strength = spec
    if scaling == "fixed":
        return strength * omega_mat
    return strength * np.sqrt(omega_cav * omega_mat)


def _run_eigen_sweep(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    variant_names = _name_list(_pop(p, "variants", path), _join(path, "variants"), _VARIANTS)
    omega_mat = _number(_pop(p, "omega_mat", path, 1.0), _join(path, "omega_mat"), exclusive_minimum=0.0)
    coupling = _coupling_spec(_pop(p, "coupling", path), _join(path, "coupling"))
    overrides_raw = _pop(p, "coupling_overrides", path, None)
    overrides = {}
    if overrides_raw is not None:
        om = dict(_as_mapping(overrides_raw, _join(path, "coupling_overrides")))
        for name in list(om):
            key_path = _join(path, f"coupling_overrides.{name}")
            if name not in _VARIANTS:
                raise SchemaError(key_path, f"expected one of {sorted(_VARIANTS)}")
            overrides[name] = _coupling_spec(om.pop(name), key_path)
    sweep = _grid(_pop(p, "sweep", path), _join(path, "sweep"), exclusive_minimum=0.0)
    alt_names = []
    alts_raw = _pop(p, "alternatives", path, None)
    if alts_raw is not None:
        alt_names = _name_list(alts_raw, _join(path, "alternatives"), _ALTERNATIVES, nonempty=False)
    _reject_unknown(p, path)
    for alt in alt_names:
        base_variant = _ALTERNATIVES[alt][0]
        if base_variant.value not in variant_names:
            raise SchemaError(
                _join(path, "alternatives"),
                f"{alt} is a dressed form of {base_variant.value}; add it to variants",
            )

    omega_cav = sweep * omega_mat
    columns = [("omega_cav/omega_mat (1)", sweep)]

    def branch_columns(variant, wc, wm, g, label, tag):
        plus, minus = branch_frequencies(variant, wc, wm, g)
        _check_det_residual(variant, wc, wm, g, plus, f"{label} upper branch")
        _check_det_residual(variant, wc, wm, g, minus, f"{label} lower branch")
        columns.append((f"omega_plus_{tag} (omega_mat)", plus / omega_mat))
        columns.append((f"omega_minus_{tag} (omega_mat)", minus / omega_mat))

    for name in variant_names:
        g = _coupling_value(overrides.get(name, coupling), omega_cav, omega_mat)
        branch_columns(_VARIANTS[name], omega_cav, omega_mat, g, name, _VARIANT_TAGS[name])

    for alt in alt_names:
        base_variant, target = _ALTERNATIVES[alt]
        g = _coupling_value(overrides.get(base_variant.value, coupling), omega_cav, omega_mat)
        # an invalid dressing gives NaN parameters, which mask both branches
        wc, wm, g_dressed = dressed_parameters(base_variant, target, omega_cav, omega_mat, g)
        branch_columns(target, wc, wm, g_dressed, alt, alt.lower())

    return _Table(columns, extras={"omega_mat_eV": omega_mat})


# --------------------------------------------------------------------------
# kind: min_splitting


def _run_min_splitting(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    variant_names = _name_list(_pop(p, "variants", path), _join(path, "variants"), _VARIANTS)
    omega_mat = _number(_pop(p, "omega_mat", path, 1.0), _join(path, "omega_mat"), exclusive_minimum=0.0)
    g_grid = _grid(_pop(p, "g_grid", path), _join(path, "g_grid"), minimum=0.0)
    sweep = None
    sweep_raw = _pop(p, "cavity_sweep", path, None)
    if sweep_raw is not None:
        sweep = _grid(sweep_raw, _join(path, "cavity_sweep"), exclusive_minimum=0.0) * omega_mat
    _reject_unknown(p, path)

    columns = [("g/omega_mat (1)", g_grid)]
    for name in variant_names:
        result = min_splitting(_VARIANTS[name], g_grid * omega_mat, omega_mat, sweep=sweep)
        columns.append((f"Omega_min_{_VARIANT_TAGS[name]} (omega_mat)", result.Omega_min / omega_mat))
    return _Table(columns, extras={"omega_mat_eV": omega_mat})


# --------------------------------------------------------------------------
# kind: spectrum


_MAX_CURVES = 8


def _curve_spec(value, path: str) -> dict:
    m = dict(_as_mapping(value, path))
    curve = {
        "label": _string(_pop(m, "label", path), _join(path, "label")),
        "variant": _string(_pop(m, "variant", path), _join(path, "variant"), choices=("SpC", "MoC")),
        "omega_cav": _number(_pop(m, "omega_cav", path), _join(path, "omega_cav"), exclusive_minimum=0.0),
        "omega_mat": _number(_pop(m, "omega_mat", path), _join(path, "omega_mat"), exclusive_minimum=0.0),
        "kappa": _number(_pop(m, "kappa", path, 0.0), _join(path, "kappa"), minimum=0.0),
        "gamma": _number(_pop(m, "gamma", path, 0.0), _join(path, "gamma"), minimum=0.0),
        "g": _number(_pop(m, "g", path), _join(path, "g")),
        "f_cav": _number(_pop(m, "f_cav", path), _join(path, "f_cav"), exclusive_minimum=0.0),
        "f_mat": _number(_pop(m, "f_mat", path), _join(path, "f_mat"), exclusive_minimum=0.0),
    }
    r_cav = _pop(m, "R_cav", path, None)
    curve["R_cav"] = None if r_cav is None else _number(
        r_cav, _join(path, "R_cav"), exclusive_minimum=0.0
    )
    label = curve["label"]
    if not label or not all(c.isalnum() or c == "_" for c in label):
        raise SchemaError(_join(path, "label"), f"label must be alphanumeric/underscore, got {label!r}")
    _reject_unknown(m, path)
    return curve


def _run_spectrum(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    omega_grid = _grid(_pop(p, "omega_grid", path), _join(path, "omega_grid"), exclusive_minimum=0.0)
    e_inc = _number(_pop(p, "E_inc", path, 1.0), _join(path, "E_inc"), exclusive_minimum=0.0)
    n_cav = _vector3(_pop(p, "orientation_cav", path, [1.0, 0.0, 0.0]), _join(path, "orientation_cav"))
    n_mat = _vector3(_pop(p, "orientation_mat", path, [1.0, 0.0, 0.0]), _join(path, "orientation_mat"))
    curves_raw = _pop(p, "curves", path)
    _reject_unknown(p, path)
    if not isinstance(curves_raw, (list, tuple)) or not curves_raw:
        raise SchemaError(_join(path, "curves"), "expected a nonempty list of curve mappings")
    if len(curves_raw) > _MAX_CURVES:
        raise SchemaError(_join(path, "curves"), f"at most {_MAX_CURVES} curves per scenario")
    curves = [
        _curve_spec(c, _join(path, f"curves.{i}")) for i, c in enumerate(curves_raw)
    ]
    labels = [c["label"] for c in curves]
    if len(set(labels)) != len(labels):
        raise SchemaError(_join(path, "curves"), f"duplicate curve labels in {labels}")

    columns = [("omega (eV)", omega_grid)]
    for curve in curves:
        pair = OscillatorPair(curve["omega_cav"], curve["omega_mat"], curve["kappa"], curve["gamma"])
        variant = _VARIANTS[curve["variant"]]
        model = CoupledModel(pair, variant, curve["g"])
        solver = driven_spc if variant is ModelVariant.SPC else driven_mc
        drive = DriveSpec(
            E_inc=e_inc, omega=omega_grid, f_cav=_reduced(curve["f_cav"]), f_mat=_reduced(curve["f_mat"])
        )
        sigma = scattering_cross_section(solver(model, drive), n_cav, n_mat, e_inc, omega_grid)
        columns.append((f"sigma_{curve['label']} (nm^2)", sigma))
        if curve["R_cav"] is not None:
            geometric = math.pi * curve["R_cav"] ** 2
            columns.append((f"sigma_norm_{curve['label']} (1)", sigma / geometric))
    return _Table(columns)


# --------------------------------------------------------------------------
# kind: fieldmap / fractions


def _box_scene_spec(value, path: str, *, with_omega_mat: bool) -> dict:
    m = dict(_as_mapping(value, path))
    spec = {
        "L": _vector3(_pop(m, "L", path), _join(path, "L")),
        "V_eff": _number(_pop(m, "V_eff", path), _join(path, "V_eff"), exclusive_minimum=0.0),
        "omega_cav": _number(_pop(m, "omega_cav", path), _join(path, "omega_cav"), exclusive_minimum=0.0),
        "f_mat": _number(_pop(m, "f_mat", path), _join(path, "f_mat"), exclusive_minimum=0.0),
        "emitter": _vector3(_pop(m, "emitter", path, [0.0, 0.0, 0.0]), _join(path, "emitter")),
        "orientation": _vector3(_pop(m, "orientation", path, [0.0, 0.0, 1.0]), _join(path, "orientation")),
    }
    if with_omega_mat:
        spec["omega_mat"] = _number(
            _pop(m, "omega_mat", path), _join(path, "omega_mat"), exclusive_minimum=0.0
        )
    _reject_unknown(m, path)
    return spec


def _make_box_scene(spec: dict, omega_mat: float) -> BoxCavityScene:
    return BoxCavityScene(
        L=spec["L"],
        V_eff=spec["V_eff"],
        omega_cav=spec["omega_cav"],
        r_mat=spec["emitter"],
        n_d=spec["orientation"],
        f_mat=spec["f_mat"],
        omega_mat=omega_mat,
    )


_AXES = {"x": 0, "y": 1, "z": 2}


def _line_spec(value, path: str) -> tuple:
    m = dict(_as_mapping(value, path))
    axis = _string(_pop(m, "axis", path), _join(path, "axis"), choices=tuple(_AXES))
    start = _number(_pop(m, "start", path), _join(path, "start"))
    stop = _number(_pop(m, "stop", path), _join(path, "stop"))
    num = _integer(_pop(m, "num", path), _join(path, "num"), minimum=2, maximum=_MAX_GRID_POINTS)
    offset = _vector3(_pop(m, "offset", path, [0.0, 0.0, 0.0]), _join(path, "offset"))
    _reject_unknown(m, path)
    if stop <= start:
        raise SchemaError(_join(path, "stop"), f"must be > start ({start}), got {stop}")
    t = np.linspace(start, stop, num)
    positions = np.tile(np.asarray(offset, dtype=float), (num, 1))
    positions[:, _AXES[axis]] += t
    return t, positions, axis


def _branch_list(value, path: str) -> list:
    names = _name_list(value, path, _BRANCHES)
    return names


def _run_fieldmap(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    scene_kind = _string(_pop(p, "scene", path), _join(path, "scene"), choices=("box", "nanoparticle"))
    component = _string(
        _pop(p, "component", path, "z" if scene_kind == "box" else "x"),
        _join(path, "component"),
        choices=tuple(_AXES),
    )
    core_radius = _number(
        _pop(p, "core_radius", path, 0.1), _join(path, "core_radius"), exclusive_minimum=0.0
    )
    t, positions, axis = _line_spec(_pop(p, "line", path), _join(path, "line"))
    comp = _AXES[component]

    if scene_kind == "box":
        box = _box_scene_spec(_pop(p, "box", path), _join(path, "box"), with_omega_mat=True)
        g = _number(_pop(p, "g", path), _join(path, "g"))
        branch_names = _branch_list(_pop(p, "branches", path), _join(path, "branches"))
        _reject_unknown(p, path)
        scene = _make_box_scene(box, box["omega_mat"])
        columns = [(f"{axis} (nm)", t)]
        extras = {}
        model = CoupledModel(
            OscillatorPair(scene.omega_cav, scene.omega_mat), ModelVariant.MOC, abs(g)
        )
        modes = eigenfrequencies(model)
        extras["omega_plus_eV"] = modes.omega_plus.real
        extras["omega_minus_eV"] = modes.omega_minus.real
        extras["rho_plus"] = float(eigenvector_ratio(model, +1).imag)
        for name in branch_names:
            fields = dielectric_field_arrays(
                scene, g, _BRANCHES[name], positions, core_radius=core_radius
            )
            _field_columns(columns, fields, comp, component, name)
        return _Table(columns, extras=extras)

    np_spec_raw = _pop(p, "nanoparticle", path)
    g = _number(_pop(p, "g", path), _join(path, "g"))
    drive_raw = _pop(p, "drive", path)
    _reject_unknown(p, path)
    m = dict(_as_mapping(np_spec_raw, _join(path, "nanoparticle")))
    np_path = _join(path, "nanoparticle")
    scene = NanoparticleScene(
        R_cav=_number(_pop(m, "R_cav", np_path), _join(np_path, "R_cav"), exclusive_minimum=0.0),
        r_cav=_vector3(_pop(m, "r_cav", np_path, [0.0, 0.0, 0.0]), _join(np_path, "r_cav")),
        r_mat=_vector3(_pop(m, "r_mat", np_path), _join(np_path, "r_mat")),
        n_dcav=_vector3(_pop(m, "orientation_cav", np_path, [1.0, 0.0, 0.0]), _join(np_path, "orientation_cav")),
        n_dmat=_vector3(_pop(m, "orientation_mat", np_path, [1.0, 0.0, 0.0]), _join(np_path, "orientation_mat")),
        f_cav=_number(_pop(m, "f_cav", np_path), _join(np_path, "f_cav"), exclusive_minimum=0.0),
        f_mat=_number(_pop(m, "f_mat", np_path), _join(np_path, "f_mat"), exclusive_minimum=0.0),
        omega_cav=_number(_pop(m, "omega_cav", np_path), _join(np_path, "omega_cav"), exclusive_minimum=0.0),
        omega_mat=_number(_pop(m, "omega_mat", np_path), _join(np_path, "omega_mat"), exclusive_minimum=0.0),
        kappa=_number(_pop(m, "kappa", np_path, 0.0), _join(np_path, "kappa"), minimum=0.0),
        gamma=_number(_pop(m, "gamma", np_path, 0.0), _join(np_path, "gamma"), minimum=0.0),
    )
    _reject_unknown(m, np_path)
    dm = dict(_as_mapping(drive_raw, _join(path, "drive")))
    drive_path = _join(path, "drive")
    e_inc = _number(_pop(dm, "E_inc", drive_path, 1.0), _join(drive_path, "E_inc"), exclusive_minimum=0.0)
    targets = _branch_list(_pop(dm, "at", drive_path), _join(drive_path, "at"))
    _reject_unknown(dm, drive_path)

    lossless = CoupledModel(
        OscillatorPair(scene.omega_cav, scene.omega_mat), ModelVariant.SPC, g
    )
    modes = eigenfrequencies(lossless)
    if not modes.lower_branch_real:
        raise PolaritonError("lower hybrid mode is not real; cannot set the drive frequency")
    drive_freqs = {"upper": modes.omega_plus.real, "lower": modes.omega_minus.real}
    lossy = CoupledModel(
        OscillatorPair(scene.omega_cav, scene.omega_mat, scene.kappa, scene.gamma),
        ModelVariant.SPC,
        g,
    )
    f_cav_red = _reduced(float(scene.f_cav))
    f_mat_red = _reduced(float(scene.f_mat))
    columns = [(f"{axis} (nm)", t)]
    extras = {"omega_plus_eV": drive_freqs["upper"], "omega_minus_eV": drive_freqs["lower"]}
    for name in targets:
        omega_drive = drive_freqs[name]
        resp = driven_spc(
            lossy, DriveSpec(E_inc=e_inc, omega=omega_drive, f_cav=f_cav_red, f_mat=f_mat_red)
        )
        fields = quasistatic_field_arrays(scene, resp, positions, core_radius=core_radius)
        _field_columns(columns, fields, comp, component, name)
    return _Table(columns, extras=extras)


def _field_columns(columns: list, fields, comp: int, component: str, name: str) -> None:
    """Append the real parts of one field component, and the exclusion mask."""
    columns.append((f"E_cav_{component}_{name} (arb)", fields.E_cav[:, comp].real))
    columns.append((f"E_mat_{component}_{name} (arb)", fields.E_mat[:, comp].real))
    columns.append((f"E_total_{component}_{name} (arb)", fields.E_total[:, comp].real))
    columns.append((f"excluded_{name} (1)", fields.excluded.astype(int)))


def _run_fractions(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    box = _box_scene_spec(_pop(p, "box", path), _join(path, "box"), with_omega_mat=False)
    g = _number(_pop(p, "g", path), _join(path, "g"))
    position = _vector3(_pop(p, "position", path), _join(path, "position"))
    detuning = _grid(_pop(p, "detuning_grid", path), _join(path, "detuning_grid"))
    branch_names = _branch_list(_pop(p, "branches", path, ["upper", "lower"]), _join(path, "branches"))
    core_radius = _number(
        _pop(p, "core_radius", path, 0.1), _join(path, "core_radius"), exclusive_minimum=0.0
    )
    _reject_unknown(p, path)
    omega_cav = box["omega_cav"]
    bad = detuning[detuning <= -omega_cav]
    if bad.size:
        raise SchemaError(
            _join(path, "detuning_grid"),
            f"omega_mat = omega_cav + detuning must stay positive; got detuning {bad[0]}",
        )

    scene = _make_box_scene(box, omega_cav + detuning)
    columns = [("detuning (eV)", detuning)]
    for name in branch_names:
        sigma_cav, sigma_mat = contribution_fractions(
            scene, g, _BRANCHES[name], position, core_radius=core_radius
        )
        columns.append((f"Sigma_cav_{name} (1)", sigma_cav))
        columns.append((f"Sigma_mat_{name} (1)", sigma_mat))
    return _Table(columns)


# --------------------------------------------------------------------------
# kind: ensemble


def _mode_spec(value, path: str) -> tuple:
    m = dict(_as_mapping(value, path))
    n = _integer(_pop(m, "n", path), _join(path, "n"), minimum=1)
    k_par = _pop(m, "k_parallel", path, [0.0, 0.0])
    if not isinstance(k_par, (list, tuple)) or len(k_par) != 2:
        raise SchemaError(_join(path, "k_parallel"), f"expected a 2-component vector, got {k_par!r}")
    kx = _number(k_par[0], _join(path, "k_parallel.0"))
    ky = _number(k_par[1], _join(path, "k_parallel.1"))
    _reject_unknown(m, path)
    return (n, (kx, ky))


def _run_ensemble(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    cav_raw = dict(_as_mapping(_pop(p, "cavity", path), _join(path, "cavity")))
    cav_path = _join(path, "cavity")
    modes_raw = _pop(cav_raw, "modes", cav_path)
    if not isinstance(modes_raw, (list, tuple)) or not modes_raw:
        raise SchemaError(_join(cav_path, "modes"), "expected a nonempty list of mode mappings")
    modes = tuple(
        _mode_spec(mv, _join(cav_path, f"modes.{i}")) for i, mv in enumerate(modes_raw)
    )
    fp = FabryPerotSpec(
        L_cav=_number(_pop(cav_raw, "L_cav", cav_path), _join(cav_path, "L_cav"), exclusive_minimum=0.0),
        lateral_period=_number(
            _pop(cav_raw, "lateral_period", cav_path),
            _join(cav_path, "lateral_period"),
            exclusive_minimum=0.0,
        ),
        modes=modes,
        epsilon_inf=_number(_pop(cav_raw, "epsilon_inf", cav_path, 1.0), _join(cav_path, "epsilon_inf"), minimum=1.0),
    )
    _reject_unknown(cav_raw, cav_path)

    lat_raw = dict(_as_mapping(_pop(p, "lattice", path), _join(path, "lattice")))
    lat_path = _join(path, "lattice")
    shape_raw = _pop(lat_raw, "shape", lat_path)
    if not isinstance(shape_raw, (list, tuple)) or len(shape_raw) != 3:
        raise SchemaError(_join(lat_path, "shape"), f"expected [nx, ny, nz], got {shape_raw!r}")
    shape = tuple(
        _integer(v, _join(lat_path, f"shape.{i}"), minimum=1) for i, v in enumerate(shape_raw)
    )
    spacing = _number(_pop(lat_raw, "spacing", lat_path), _join(lat_path, "spacing"), exclusive_minimum=0.0)
    f_dip = _number(_pop(lat_raw, "f_dip", lat_path), _join(lat_path, "f_dip"), exclusive_minimum=0.0)
    omega_dip = _number(
        _pop(lat_raw, "omega_dip", lat_path), _join(lat_path, "omega_dip"), exclusive_minimum=0.0
    )
    orientation = _vector3(
        _pop(lat_raw, "orientation", lat_path, [1.0, 0.0, 0.0]), _join(lat_path, "orientation")
    )
    _reject_unknown(lat_raw, lat_path)

    mode = _mode_spec(_pop(p, "mode", path), _join(path, "mode"))
    include_dd = _boolean(_pop(p, "include_dipole_dipole", path, True), _join(path, "include_dipole_dipole"))
    tolerance = _number(
        _pop(p, "tolerance", path, 1e-2), _join(path, "tolerance"), exclusive_minimum=0.0
    )
    _reject_unknown(p, path)

    lattice = cubic_dipole_lattice(fp, spacing, shape, f_dip, omega_dip, orientation=orientation)
    full = build_full_system(lattice, fp, include_dipole_dipole=include_dd)
    report = full_vs_reduced_check(
        lattice, fp, mode, tolerance=tolerance, include_dipole_dipole=include_dd
    )
    cm = report.collective
    columns = [
        ("omega_cav (eV)", [fp.mode_frequency(mode)]),
        ("Omega_mat (eV)", [cm.Omega_mat]),
        ("G (eV)", [cm.G]),
        ("N_eff (1)", [cm.N_eff]),
        ("g_shift (eV)", [cm.g_shift]),
        ("g_shift_spread (eV)", [cm.g_shift_spread]),
        ("omega_plus_full (eV)", [report.omega_full[0]]),
        ("omega_minus_full (eV)", [report.omega_full[1]]),
        ("omega_plus_reduced (eV)", [report.omega_reduced[0]]),
        ("omega_minus_reduced (eV)", [report.omega_reduced[1]]),
        ("max_rel_deviation (1)", [report.max_rel_deviation]),
        ("passed (1)", [1 if report.passed else 0]),
    ]
    extras = {
        "n_dipoles": lattice.n_dip,
        "n_modes": full.n_modes,
        "include_dipole_dipole": include_dd,
    }
    return _Table(columns, extras=extras)


# --------------------------------------------------------------------------
# kind: permittivity


def _run_permittivity(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    model_names = _name_list(_pop(p, "models", path), _join(path, "models"), ("MoC", "SpC"))
    epsilon_inf = _number(_pop(p, "epsilon_inf", path, 1.0), _join(path, "epsilon_inf"), minimum=1.0)
    fit_raw = _pop(p, "fit", path, None)
    extras = {}
    if fit_raw is not None:
        if "Omega_mat" in p or "G" in p:
            raise SchemaError(_join(path, "fit"), "give either fit or (Omega_mat, G), not both")
        fm = dict(_as_mapping(fit_raw, _join(path, "fit")))
        fit_path = _join(path, "fit")
        omega_to = _number(_pop(fm, "omega_to", fit_path), _join(fit_path, "omega_to"), exclusive_minimum=0.0)
        omega_lo = _number(_pop(fm, "omega_lo", fit_path), _join(fit_path, "omega_lo"))
        _reject_unknown(fm, fit_path)
        fitted = reststrahlen_fit(omega_to, omega_lo, epsilon_inf=epsilon_inf)
        omega_mat, g_coupling = fitted.Omega_mat, fitted.G
        mc_variant = PermittivityVariant.POLAR_LORENTZ
        extras["fit_omega_to_eV"] = omega_to
        extras["fit_omega_lo_eV"] = omega_lo
    else:
        omega_mat = _number(_pop(p, "Omega_mat", path), _join(path, "Omega_mat"), exclusive_minimum=0.0)
        g_coupling = _number(_pop(p, "G", path), _join(path, "G"), minimum=0.0)
        mc_variant = PermittivityVariant.MOC
    omega_grid = _grid(_pop(p, "omega_grid", path), _join(path, "omega_grid"), minimum=0.0)
    _reject_unknown(p, path)
    if "SpC" in model_names and epsilon_inf != 1.0:
        raise SchemaError(
            _join(path, "epsilon_inf"),
            "the amplitude-coupled permittivity has no high-frequency screening; use 1",
        )

    columns = [("omega/Omega_mat (1)", omega_grid / omega_mat)]
    for name in model_names:
        if name == "MoC":
            model = PermittivityModel(omega_mat, g_coupling, epsilon_inf=epsilon_inf, variant=mc_variant)
            eps = np.asarray(permittivity_mc(model, omega_grid))
            lo_edge = reststrahlen_band(model)[1]
            extras["reststrahlen_lo_eV"] = lo_edge
            columns.append(("eps_mc (1)", eps))
        else:
            model = PermittivityModel(omega_mat, g_coupling, variant=PermittivityVariant.SPC)
            eps = np.asarray(permittivity_spc(model, omega_grid))
            columns.append(("eps_spc (1)", eps))
    extras["Omega_mat_eV"] = omega_mat
    extras["G_eV"] = g_coupling
    return _Table(columns, extras=extras)


# --------------------------------------------------------------------------
# kind: dispersion


def _run_dispersion(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    model_names = _name_list(_pop(p, "models", path), _join(path, "models"), ("MoC", "A1", "A2"))
    omega_to = _number(_pop(p, "omega_to", path, 1.0), _join(path, "omega_to"), exclusive_minimum=0.0)
    g_rel = _number(_pop(p, "G_over_omega_to", path), _join(path, "G_over_omega_to"), minimum=0.0)
    epsilon_inf = _number(_pop(p, "epsilon_inf", path, 1.0), _join(path, "epsilon_inf"), minimum=1.0)
    k_grid_rel = _grid(_pop(p, "k_grid", path), _join(path, "k_grid"), minimum=0.0)
    content = _string(
        _pop(p, "content", path, "dispersion"), _join(path, "content"), choices=("dispersion", "couplings")
    )
    _reject_unknown(p, path)

    g_coupling = g_rel * omega_to
    k_grid = k_grid_rel * omega_to / UNITS.hbar_c
    omega_lo = math.sqrt(omega_to**2 + 4.0 * g_coupling**2)
    tags = {"MoC": "mc", "A1": "a1", "A2": "a2"}
    columns = [("ck/omega_TO (1)", k_grid_rel)]
    if content == "dispersion":
        for name in model_names:
            lower, upper = bulk_dispersion(name, omega_to, g_coupling, k_grid, epsilon_inf=epsilon_inf)
            photon = UNITS.hbar_c * k_grid / math.sqrt(epsilon_inf)
            if name == "A1":
                photon = np.sqrt(photon**2 + 4.0 * g_coupling**2)
            tag = tags[name]
            columns.append((f"omega_lower_{tag} (omega_TO)", lower.omega / omega_to))
            columns.append((f"omega_upper_{tag} (omega_TO)", upper.omega / omega_to))
            columns.append((f"omega_photon_{tag} (omega_TO)", photon / omega_to))
    else:
        for name in model_names:
            profile = coupling_profiles(name, omega_to, g_coupling, k_grid, epsilon_inf=epsilon_inf)
            columns.append((f"G_{tags[name]} (omega_TO)", np.asarray(profile) / omega_to))
    return _Table(columns, extras={"omega_lo_over_omega_to": omega_lo / omega_to})


# --------------------------------------------------------------------------
# kind: oracle


def _run_oracle(params: dict) -> _Table:
    path = "parameters"
    p = dict(params)
    flavor = _string(
        _pop(p, "flavor", path, "quantum"), _join(path, "flavor"), choices=("quantum", "polarizability")
    )
    if flavor == "quantum":
        omega_cav = _number(_pop(p, "omega_cav", path), _join(path, "omega_cav"), exclusive_minimum=0.0)
        omega_mat = _number(_pop(p, "omega_mat", path), _join(path, "omega_mat"), exclusive_minimum=0.0)
        g_qed = _number(_pop(p, "g_qed", path), _join(path, "g_qed"), minimum=0.0)
        d_raw = _pop(p, "D", path, 0.0)
        if isinstance(d_raw, str):
            d_tag = _string(d_raw, _join(path, "D"), choices=("SpC", "MoC"))
            diamagnetic = 0.0 if d_tag == "SpC" else g_qed**2 / omega_mat
        else:
            diamagnetic = _number(d_raw, _join(path, "D"), minimum=0.0)
        n_max = _integer(_pop(p, "n_max", path, 40), _join(path, "n_max"), minimum=2, maximum=63)
        n_levels = _integer(_pop(p, "n_levels", path, 5), _join(path, "n_levels"), minimum=1)
        rwa = _boolean(_pop(p, "rwa", path, False), _join(path, "rwa"))
        frame_check = _boolean(_pop(p, "frame_check", path, False), _join(path, "frame_check"))
        _reject_unknown(p, path)
        hp = HopfieldParams(omega_cav, omega_mat, g_qed, diamagnetic)
        spectrum = truncated_fock_spectrum(hp, n_max, n_levels, rwa=rwa)
        extras = {
            "ground_state_energy_eV": spectrum.ground_state_energy,
            "truncation": spectrum.truncation,
            "D_eV": diamagnetic,
        }
        if not rwa:
            w_plus, w_minus = hopfield_quartic_eigen(hp)
            extras["omega_minus_quartic_eV"] = w_minus
            extras["omega_plus_quartic_eV"] = w_plus
        if frame_check:
            extras["frame_deviation_eV"] = frame_equivalence_check(hp, n_max=n_max)
        levels = np.arange(1, len(spectrum.excitation_energies) + 1)
        columns = [
            ("level (1)", levels),
            ("excitation_energy (eV)", np.asarray(spectrum.excitation_energies)),
        ]
        return _Table(columns, extras=extras)

    omega_cav = _number(_pop(p, "omega_cav", path), _join(path, "omega_cav"), exclusive_minimum=0.0)
    omega_mat = _number(_pop(p, "omega_mat", path), _join(path, "omega_mat"), exclusive_minimum=0.0)
    kappa = _number(_pop(p, "kappa", path, 0.0), _join(path, "kappa"), minimum=0.0)
    gamma = _number(_pop(p, "gamma", path, 0.0), _join(path, "gamma"), minimum=0.0)
    f_cav = _number(_pop(p, "f_cav", path), _join(path, "f_cav"), exclusive_minimum=0.0)
    f_mat = _number(_pop(p, "f_mat", path), _join(path, "f_mat"), exclusive_minimum=0.0)
    r_cav = _vector3(_pop(p, "r_cav", path, [0.0, 0.0, 0.0]), _join(path, "r_cav"))
    r_mat = _vector3(_pop(p, "r_mat", path), _join(path, "r_mat"))
    n_dcav = _vector3(_pop(p, "orientation_cav", path, [1.0, 0.0, 0.0]), _join(path, "orientation_cav"))
    n_dmat = _vector3(_pop(p, "orientation_mat", path, [1.0, 0.0, 0.0]), _join(path, "orientation_mat"))
    e_inc = _number(_pop(p, "E_inc", path, 1.0), _join(path, "E_inc"), exclusive_minimum=0.0)
    omega_grid = _grid(_pop(p, "omega_grid", path), _join(path, "omega_grid"), exclusive_minimum=0.0)
    _reject_unknown(p, path)

    g_geo = coupling_dipole_dipole(
        OscillatorStrength(f_cav),
        OscillatorStrength(f_mat),
        r_cav,
        r_mat,
        n_dcav,
        n_dmat,
        omega_cav,
        omega_mat,
    )
    model = CoupledModel(
        OscillatorPair(omega_cav, omega_mat, kappa, gamma), ModelVariant.SPC, g_geo
    )
    f_cav_red = _reduced(f_cav)
    f_mat_red = _reduced(f_mat)
    reference = polarizability_oracle(
        f_cav_red, f_mat_red, omega_cav, omega_mat, kappa, gamma,
        r_cav, r_mat, n_dcav, n_dmat, e_inc, omega_grid,
    )
    resp = driven_spc(model, DriveSpec(E_inc=e_inc, omega=omega_grid, f_cav=f_cav_red, f_mat=f_mat_red))
    scale = np.maximum(np.abs(reference.x_cav), np.abs(reference.x_mat))
    dev = np.maximum(np.abs(resp.x_cav - reference.x_cav), np.abs(resp.x_mat - reference.x_mat))
    deviations = np.divide(dev, scale, out=np.full(dev.shape, math.inf), where=scale > 0)
    columns = [
        ("omega (eV)", omega_grid),
        ("x_cav_re (arb)", resp.x_cav.real),
        ("x_cav_im (arb)", resp.x_cav.imag),
        ("x_mat_re (arb)", resp.x_mat.real),
        ("x_mat_im (arb)", resp.x_mat.imag),
        ("oracle_deviation (1)", deviations),
    ]
    extras = {"g_coupling_eV": g_geo, "max_oracle_deviation": float(np.max(deviations))}
    return _Table(columns, extras=extras)


# --------------------------------------------------------------------------
# dispatch table and the module-operation coverage declaration


_HANDLERS = {
    "eigen_sweep": _run_eigen_sweep,
    "min_splitting": _run_min_splitting,
    "spectrum": _run_spectrum,
    "fieldmap": _run_fieldmap,
    "fractions": _run_fractions,
    "ensemble": _run_ensemble,
    "permittivity": _run_permittivity,
    "dispersion": _run_dispersion,
    "oracle": _run_oracle,
}

SCENARIO_KINDS = tuple(_HANDLERS)

# Which public operations each scenario kind drives; the test suite asserts
# this covers the whole library surface, so no operation is unreachable from
# the scenario layer.
KIND_OPERATIONS = {
    "eigen_sweep": (
        "models.branch_frequencies",
        "models.dressed_parameters",
        "models.determinant_residual",
    ),
    "min_splitting": ("models.min_splitting",),
    "spectrum": (
        "driven.driven_spc",
        "driven.driven_mc",
        "driven.scattering_cross_section",
    ),
    "fieldmap": (
        "fields.dielectric_field_arrays",
        "fields.quasistatic_field_arrays",
        "models.eigenfrequencies",
        "models.eigenvector_ratio",
        "driven.driven_spc",
    ),
    "fractions": ("fields.contribution_fractions",),
    "ensemble": (
        "ensemble.cubic_dipole_lattice",
        "ensemble.build_full_system",
        "ensemble.collective_reduce",
        "ensemble.full_vs_reduced_check",
        "units.coupling_from_mode_volume",
    ),
    "permittivity": (
        "material.permittivity_mc",
        "material.permittivity_spc",
        "material.reststrahlen_band",
        "material.reststrahlen_fit",
    ),
    "dispersion": ("material.bulk_dispersion", "material.coupling_profiles"),
    "oracle": (
        "hopfield.truncated_fock_spectrum",
        "hopfield.hopfield_quartic_eigen",
        "hopfield.frame_equivalence_check",
        "driven.polarizability_oracle",
        "driven.driven_spc",
        "units.coupling_dipole_dipole",
    ),
}


# --------------------------------------------------------------------------
# artifact output


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _render_csv(table: _Table) -> bytes:
    n = table.n_rows()
    for cell, values in table.columns:
        if len(values) != n:
            raise PolaritonError(f"column {cell!r} has {len(values)} rows, expected {n}")
    lines = [",".join(cell for cell, _ in table.columns)]
    for i in range(n):
        lines.append(",".join(_format_cell(values[i]) for _, values in table.columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


_SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    "#bcbd22", "#e377c2", "#393b79", "#637939",
)


def _render_svg(table: _Table, title: str) -> bytes:
    """Minimal deterministic line plot: first column is x, the rest are series."""
    width, height = 720, 480
    left, right, top, bottom = 70.0, 20.0, 34.0, 50.0
    x = np.asarray(table.columns[0][1], dtype=float)
    series = [(cell, np.asarray(vals, dtype=float)) for cell, vals in table.columns[1:]]
    finite_x = x[np.isfinite(x)]
    ys = np.concatenate([v[np.isfinite(v)] for _, v in series]) if series else np.array([])
    if finite_x.size == 0 or ys.size == 0:
        raise PolaritonError("nothing to plot: no finite data points")
    x0, x1 = float(finite_x.min()), float(finite_x.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return left + (v - x0) / (x1 - x0) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y0) / (y1 - y0) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left:.1f}" y="20" font-size="14">{title}</text>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        f'stroke="black"/>',
        f'<text x="{left:.1f}" y="{height - bottom + 16:.1f}">{x0:.6g}</text>',
        f'<text x="{width - right:.1f}" y="{height - bottom + 16:.1f}" text-anchor="end">{x1:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{height - bottom:.1f}" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{top + 10:.1f}" text-anchor="end">{y1:.6g}</text>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle">{table.columns[0][0]}</text>',
    ]
    for idx, (cell, values) in enumerate(series):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        run = []
        segments = []
        for xi, yi in zip(x, values):
            if math.isfinite(xi) and math.isfinite(yi):
                run.append(f"{sx(xi):.3f},{sy(yi):.3f}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        ly = top + 14.0 * idx
        parts.append(
            f'<line x1="{width - right - 150:.1f}" y1="{ly:.1f}" x2="{width - right - 130:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - right - 124:.1f}" y="{ly + 4:.1f}">{cell}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class ScenarioRun:
    kind: str
    csv_path: Path
    summary_path: Path
    summary: dict
    svg_path: Path | None = None


def _json_safe(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def run_scenario_document(
    document,
    *,
    source_name: str,
    input_bytes: bytes,
    out_dir=None,
    default_stem: str | None = None,
) -> ScenarioRun:
    """Validate and execute one scenario document, writing its artifacts."""
    if document is None:
        document = {}
    top = dict(_as_mapping(document, ""))
    kind = _string(_pop(top, "kind", ""), "kind", choices=SCENARIO_KINDS)
    schema_raw = _pop(top, "schema", "", SCHEMA_VERSION)
    if _integer(schema_raw, "schema", minimum=1) != SCHEMA_VERSION:
        raise SchemaError("schema", f"unsupported schema version {schema_raw}; this library writes {SCHEMA_VERSION}")
    params = _as_mapping(_pop(top, "parameters", ""), "parameters")
    output_raw = _pop(top, "output", "", None)
    _reject_unknown(top, "")
    out_path_raw = None
    out_format = "csv"
    if output_raw is not None:
        om = dict(_as_mapping(output_raw, "output"))
        out_path_value = _pop(om, "path", "output", None)
        if out_path_value is not None:
            out_path_raw = _string(out_path_value, "output.path")
        out_format = _string(_pop(om, "format", "output", "csv"), "output.format", choices=("csv", "svg"))
        _reject_unknown(om, "output")
    stem = default_stem or kind
    csv_path = Path(out_path_raw) if out_path_raw else Path(f"{stem}.csv")
    if not csv_path.is_absolute():
        csv_path = Path(out_dir or ".") / csv_path

    try:
        table = _HANDLERS[kind](copy.deepcopy(params))
    except SchemaError:
        raise
    except PolaritonError as exc:
        raise type(exc)(f"scenario {source_name!r} ({kind}): {exc}") from exc

    csv_bytes = _render_csv(table)
    _atomic_write(csv_path, csv_bytes)
    outputs = {csv_path.name: {"sha256": hashlib.sha256(csv_bytes).hexdigest(), "bytes": len(csv_bytes)}}
    svg_path = None
    if out_format == "svg":
        svg_path = csv_path.with_suffix(".svg")
        svg_bytes = _render_svg(table, csv_path.stem)
        _atomic_write(svg_path, svg_bytes)
        outputs[svg_path.name] = {"sha256": hashlib.sha256(svg_bytes).hexdigest(), "bytes": len(svg_bytes)}

    summary = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "version": __version__,
        "source": source_name,
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
        "outputs": outputs,
        "rows": table.n_rows(),
        "columns": [cell for cell, _ in table.columns],
    }
    for key, value in sorted(table.extras.items()):
        summary[key] = _json_safe(value)
    summary_bytes = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("utf-8")
    summary_path = csv_path.with_suffix(".summary.json")
    _atomic_write(summary_path, summary_bytes)
    return ScenarioRun(kind=kind, csv_path=csv_path, summary_path=summary_path, summary=summary, svg_path=svg_path)


def load_scenario_file(path) -> tuple:
    """Parse a scenario file; returns (document, raw bytes)."""
    raw = Path(path).read_bytes()
    try:
        document = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise SchemaError("(file)", f"could not parse scenario file: {exc}") from exc
    return document, raw


def run_scenario_file(path, out_dir=None) -> ScenarioRun:
    document, raw = load_scenario_file(path)
    return run_scenario_document(
        document,
        source_name=str(path),
        input_bytes=raw,
        out_dir=out_dir,
        default_stem=Path(path).stem,
    )


# --------------------------------------------------------------------------
# figure registry


_FIG3_F_CAV = 4345.0**2
_FIG3_F_MAT = 118.74**2


def _fig2_box() -> dict:
    from .units import dipole_moment_to_oscillator_strength

    f_mat = dipole_moment_to_oscillator_strength(15.0, 3.0).value
    return {
        "L": [300.0, 300.0, 200.0],
        "V_eff": 4.483e6,
        "omega_cav": 3.0,
        "f_mat": f_mat,
        "emitter": [0.0, 0.0, 0.0],
        "orientation": [0.0, 0.0, 1.0],
    }


def _sweep_doc(coupling_value: float, with_linearized: bool) -> dict:
    variants = ["SpC", "MoC"] + (["Linearized"] if with_linearized else [])
    return {
        "kind": "eigen_sweep",
        "parameters": {
            "variants": variants,
            "omega_mat": 1.0,
            "coupling": {"scaling": "fixed", "value": coupling_value},
            "sweep": {"start": 0.2, "stop": 2.0, "num": 601},
        },
    }


def _min_splitting_doc(with_linearized: bool) -> dict:
    variants = ["SpC", "MoC"] + (["Linearized"] if with_linearized else [])
    return {
        "kind": "min_splitting",
        "parameters": {
            "variants": variants,
            "omega_mat": 1.0,
            "g_grid": {"start": 0.0, "stop": 0.5, "num": 251},
        },
    }


def _spectrum_doc(curves, start, stop, num) -> dict:
    return {
        "kind": "spectrum",
        "parameters": {
            "omega_grid": {"start": start, "stop": stop, "num": num},
            "E_inc": 1.0,
            "orientation_cav": [1.0, 0.0, 0.0],
            "orientation_mat": [1.0, 0.0, 0.0],
            "curves": curves,
        },
    }


def _fig3_curve(label, variant, omega_mat, g, f_cav) -> dict:
    return {
        "label": label,
        "variant": variant,
        "omega_cav": 3.0,
        "omega_mat": omega_mat,
        "kappa": 0.020,
        "gamma": 0.010,
        "g": g,
        "f_cav": f_cav,
        "f_mat": _FIG3_F_MAT,
    }


def _fig_fig1c() -> dict:
    return _sweep_doc(0.1, with_linearized=False)


def _fig_fig1d() -> dict:
    return _sweep_doc(0.3, with_linearized=False)


def _fig_fig1e() -> dict:
    return _min_splitting_doc(with_linearized=False)


def _fig_fig2b() -> dict:
    return {
        "kind": "fieldmap",
        "parameters": {
            "scene": "box",
            "box": {**_fig2_box(), "omega_mat": 2.9985},
            "g": 7.5e-4,
            "branches": ["upper", "lower"],
            "line": {"axis": "x", "start": -150.0, "stop": 150.0, "num": 1501},
            "component": "z",
            "core_radius": 0.1,
        },
    }


def _fractions_doc(g: float) -> dict:
    return {
        "kind": "fractions",
        "parameters": {
            "box": _fig2_box(),
            "g": g,
            "position": [10.5, 0.0, 0.0],
            "detuning_grid": {"start": -2.99, "stop": 3.0, "num": 600},
            "branches": ["upper", "lower"],
        },
    }


def _fig_fig2c() -> dict:
    return _fractions_doc(2.5e-4 * 3.0)


def _fig_fig2d() -> dict:
    return _fractions_doc(0.2 * 3.0)


def _fig_fig3b() -> dict:
    return {
        "kind": "fieldmap",
        "parameters": {
            "scene": "nanoparticle",
            "nanoparticle": {
                "R_cav": 5.0,
                "r_cav": [0.0, 0.0, 0.0],
                "r_mat": [6.0, 0.0, 0.0],
                "orientation_cav": [1.0, 0.0, 0.0],
                "orientation_mat": [1.0, 0.0, 0.0],
                "f_cav": _FIG3_F_CAV,
                "f_mat": _FIG3_F_MAT,
                "omega_cav": 3.0,
                "omega_mat": 3.0,
                "kappa": 0.020,
                "gamma": 0.010,
            },
            "g": 0.1 * 3.0,
            "drive": {"E_inc": 1.0, "at": ["upper", "lower"]},
            "line": {"axis": "x", "start": -20.0, "stop": 20.0, "num": 1601},
            "component": "x",
            "core_radius": 0.1,
        },
    }


def _fig_fig3c() -> dict:
    g = 0.1 * 3.0
    return _spectrum_doc(
        [
            _fig3_curve("tuned", "SpC", 3.0, g, _FIG3_F_CAV),
            _fig3_curve("detuned", "SpC", 3.2, g, _FIG3_F_CAV),
        ],
        2.4, 3.6, 1201,
    )


def _fig_fig3d() -> dict:
    g = 1e-2 * 3.0
    return _spectrum_doc(
        [
            _fig3_curve("spc", "SpC", 3.0, g, _FIG3_F_CAV),
            _fig3_curve("mc", "MoC", 3.0, g, _FIG3_F_CAV),
        ],
        2.85, 3.15, 1201,
    )


def _fig_fig3e() -> dict:
    g = 0.3 * 3.0
    return _spectrum_doc(
        [
            _fig3_curve("spc", "SpC", 3.0, g, _FIG3_F_CAV),
            _fig3_curve("mc", "MoC", 3.0, g, _FIG3_F_CAV),
        ],
        1.6, 4.6, 1201,
    )


def _fig_fig4b() -> dict:
    return {
        "kind": "permittivity",
        "parameters": {
            "models": ["MoC", "SpC"],
            "Omega_mat": 1.0,
            "G": 0.3,
            "omega_grid": {"start": 0.0, "stop": 3.0, "num": 1200, "sampling": "midpoints"},
        },
    }


def _fig_figS1a() -> dict:
    return _sweep_doc(0.1, with_linearized=True)


def _fig_figS1b() -> dict:
    return _sweep_doc(0.3, with_linearized=True)


def _fig_figS1c() -> dict:
    return _min_splitting_doc(with_linearized=True)


def _fig_figS2() -> dict:
    return {
        "kind": "eigen_sweep",
        "parameters": {
            "variants": ["SpC", "MoC"],
            "omega_mat": 0.1,
            "coupling": {"scaling": "fixed", "value": 0.3},
            "coupling_overrides": {"SpC": {"scaling": "geometric", "value": 0.3}},
            "sweep": {"start": 0.2, "stop": 2.0, "num": 601},
        },
    }


def _dispersion_doc(models, content) -> dict:
    return {
        "kind": "dispersion",
        "parameters": {
            "models": models,
            "omega_to": 0.1,
            "G_over_omega_to": 0.3,
            "k_grid": {"start": 0.0, "stop": 10.0, "num": 501},
            "content": content,
        },
    }


def _fig_figS3a() -> dict:
    return _dispersion_doc(["MoC"], "dispersion")


def _fig_figS3b() -> dict:
    return _dispersion_doc(["A1"], "dispersion")


def _fig_figS3c() -> dict:
    return _dispersion_doc(["A2"], "dispersion")


def _fig_figS3d() -> dict:
    return _dispersion_doc(["MoC", "A1", "A2"], "couplings")


FIGURES = {
    "fig1c": _fig_fig1c,
    "fig1d": _fig_fig1d,
    "fig1e": _fig_fig1e,
    "fig2b": _fig_fig2b,
    "fig2c": _fig_fig2c,
    "fig2d": _fig_fig2d,
    "fig3b": _fig_fig3b,
    "fig3c": _fig_fig3c,
    "fig3d": _fig_fig3d,
    "fig3e": _fig_fig3e,
    "fig4b": _fig_fig4b,
    "figS1a": _fig_figS1a,
    "figS1b": _fig_figS1b,
    "figS1c": _fig_figS1c,
    "figS2": _fig_figS2,
    "figS3a": _fig_figS3a,
    "figS3b": _fig_figS3b,
    "figS3c": _fig_figS3c,
    "figS3d": _fig_figS3d,
}

FIGURE_IDS = tuple(FIGURES)


def figure_document(figure_id: str) -> dict:
    """The scenario document behind a canned figure id."""
    if figure_id not in FIGURES:
        raise SchemaError(
            "figure_id",
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}",
        )
    return FIGURES[figure_id]()


def reproduce_figure(figure_id: str, out_dir=".") -> ScenarioRun:
    """Run the canned scenario for one figure id, writing <id>.csv + summary."""
    document = figure_document(figure_id)
    canonical = json.dumps(document, sort_keys=True).encode("utf-8")
    return run_scenario_document(
        document,
        source_name=f"reproduce:{figure_id}",
        input_bytes=canonical,
        out_dir=out_dir,
        default_stem=figure_id,
    )
