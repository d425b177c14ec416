"""Scenario documents, figure registry, and deterministic artifact output.

A scenario is a YAML mapping with a ``kind`` selecting one of the nine
drivers below, a ``parameters`` block mirroring the corresponding module
types, and an optional ``output`` block.  Every scenario is deterministic
end to end -- there is no RNG anywhere in the pipeline.  Each driver returns
a table of integer or float columns, which is written atomically as CSV
with a fixed dialect (comma separator, LF line endings, floats as ``.17g``,
integers as plain decimals) and, optionally, as an SVG plot, so two runs of
the same document are byte-identical.

Validation is declarative: every mapping a document may hold has a field
table, a tuple of ``_Field(key, check, default)`` entries.  ``check`` is a
primitive such as ``_number`` or ``_grid`` with its bounds bound by
:func:`functools.partial`, or a nested table.  A dict of tables, each
starting with the same tag field, picks its table by that tag (the fieldmap
``scene``, the oracle ``flavor``).  ``default`` is ``_REQUIRED``; a value,
checked like a given one; ``None``, where absent and null both read as
None; or ``_OPTIONAL``, where absent reads as None but a given null is
checked.  :func:`_validate` pops the keys in table order, checks each at its
dotted key path and rejects unknown keys, so a typo never silently falls
back to a default; it never modifies the document.  Rules relating two or
more fields are plain code in the handlers, run after validation.  The
three kinds that drive a dipole pair share two fragments, ``_PAIR`` (bare
frequencies, decay rates, strengths) and ``_PLACEMENT`` (dipole positions
and orientations), and build and drive that pair in :func:`_drive_pair`.

``FIGURES`` maps each canned figure id understood by ``reproduce`` to a
document builder bound to that figure's published parameterization
(:func:`functools.partial`, or the bare builder when it takes none); every
call returns a fresh document.

Only ``models`` and ``units`` are imported with this module.  Each driver
imports the layer it runs when it is called, and ``yaml`` is imported only to
parse a file, so a ``reproduce`` process loads its own figure's layer alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import itertools
import os
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .exceptions import PoleError, PolaritonError, SchemaError
from .models import (
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    branch_frequencies,
    determinant_residual,
    dressed_parameters,
    min_splitting,
    mode_ratio,
)
from .units import (
    _MAX_DIPOLES, _MAX_FOCK_ROWS, _MAX_MODES, UNITS, _raise_first_bad, _reduced_strength, coupling_dipole_dipole,
    dipole_moment_to_oscillator_strength,
)

__all__ = [
    "SCHEMA_VERSION",
    "FIGURE_IDS",
    "SCENARIO_KINDS",
    "ScenarioRun",
    "load_scenario_file",
    "run_scenario_document",
    "run_scenario_file",
    "reproduce_figure",
    "figure_document",
]

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# field tables and the validator

_REQUIRED = object()
_OPTIONAL = object()


class _Field(NamedTuple):
    """One entry of a field table; see the module docstring."""

    key: str
    check: object  # a checker (value, path) -> parsed value, or a nested table
    default: object = _REQUIRED


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path or "(top level)", f"expected a mapping, got {type(value).__name__}")
    return value


def _validate(table, value, path: str) -> dict:
    """Check one mapping against a field table; returns the parsed values by key.

    Keys are taken in table order, so the first defect reported is the
    first in the table; an unknown key is reported after every known one.
    A dict of tables is a tagged block: every table starts with the same tag
    field, and a missing or unknown tag is reported by the first table.
    """
    mapping = dict(_as_mapping(value, path))
    if isinstance(table, dict):
        first = next(iter(table.values()))
        tag = mapping.get(first[0].key, first[0].default)
        table = table.get(tag, first) if isinstance(tag, str) else first
    out = {}
    for key, check, default in table:
        raw = mapping.pop(key, default)
        key_path = _join(path, key)
        if raw is _REQUIRED:
            raise SchemaError(key_path, "missing required key")
        if raw is _OPTIONAL or (raw is None and default is None):
            out[key] = None
        elif isinstance(check, (tuple, dict)):
            out[key] = _validate(check, raw, key_path)
        else:
            out[key] = check(raw, key_path)
    if mapping:
        raise SchemaError(_join(path, sorted(str(k) for k in mapping)[0]), "unknown key")
    return out


def _table_list(value, path: str, *, table, what: str, maximum=None) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(path, f"expected a nonempty list of {what} mappings")
    if maximum is not None and len(value) > maximum:
        raise SchemaError(path, f"at most {maximum} {what}s per scenario")
    return [_validate(table, v, _join(path, i)) for i, v in enumerate(value)]


def _number(value, path: str, *, minimum=None, exclusive_minimum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {v}")
    if exclusive_minimum is not None and v <= exclusive_minimum:
        raise SchemaError(path, f"must be > {exclusive_minimum}, got {v}")
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


def _vector(value, path: str, size: int = 3) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != size:
        raise SchemaError(path, f"expected a {size}-component vector, got {value!r}")
    return tuple(_number(v, _join(path, i)) for i, v in enumerate(value))


def _name_list(value, path: str, choices, *, nonempty=True) -> list:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(path, f"expected a list, got {value!r}")
    if nonempty and not value:
        raise SchemaError(path, "list must not be empty")
    names = [_string(v, _join(path, i), choices=choices) for i, v in enumerate(value)]
    if len(set(names)) != len(names):
        raise SchemaError(path, f"duplicate entries in {names}")
    return names


_MAX_GRID_POINTS = 200_001

_GRID = (
    _Field("start", _number),
    _Field("stop", _number),
    _Field("num", partial(_integer, minimum=1, maximum=_MAX_GRID_POINTS)),
    _Field("sampling", partial(_string, choices=("points", "midpoints")), "points"),
)


def _grid(value, path: str, *, minimum=None, exclusive_minimum=None) -> np.ndarray:
    spec = _validate(_GRID, value, path)
    start, stop, num = spec["start"], spec["stop"], spec["num"]
    if stop < start:
        raise SchemaError(_join(path, "stop"), f"must be >= start ({start}), got {stop}")
    if spec["sampling"] == "points":
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


_POSITIVE = partial(_number, exclusive_minimum=0.0)
_NONNEGATIVE = partial(_number, minimum=0.0)
_EPSILON_INF = partial(_number, minimum=1.0)
_POSITIVE_GRID = partial(_grid, exclusive_minimum=0.0)
_NONNEGATIVE_GRID = partial(_grid, minimum=0.0)

# document name -> (variant, column tag, the model whose spectrum a dressing reproduces)
_MODELS = {
    "SpC": (ModelVariant.SPC, "spc", None),
    "MoC": (ModelVariant.MOC, "mc", None),
    "Linearized": (ModelVariant.LINEARIZED, "lin", None),
    "A1": (ModelVariant.ALT_COULOMB_DRESSED_CAVITY, "a1", "MoC"),
    "A2": (ModelVariant.ALT_DIPOLE_DRESSED_MATTER, "a2", "MoC"),
    "A3": (ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY, "a3", "SpC"),
}
_BARE_MODELS = ("SpC", "MoC", "Linearized")
_BRANCHES = {"upper": +1, "lower": -1}
_AXES = {"x": 0, "y": 1, "z": 2}

_VARIANT_LIST = partial(_name_list, choices=_BARE_MODELS)
_BRANCH_LIST = partial(_name_list, choices=_BRANCHES)
_AXIS = partial(_string, choices=tuple(_AXES))


# --------------------------------------------------------------------------
# result table


@dataclass
class _Table:
    columns: list  # list of (header cell, 1-D integer or float array)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = [(cell, np.asarray(values)) for cell, values in self.columns]
        for cell, values in self.columns:
            if values.ndim != 1 or values.dtype.kind not in "iuf":
                raise PolaritonError(
                    f"column {cell!r} must be a 1-D integer or float array, "
                    f"got {values.dtype} of shape {values.shape}"
                )
            if len(values) != self.n_rows():
                raise PolaritonError(f"column {cell!r} has {len(values)} rows, expected {self.n_rows()}")

    def n_rows(self) -> int:
        return len(self.columns[0][1])


_DET_RESIDUAL_BOUND = 1e-8


def _check_det_residual(variant: ModelVariant, omega_cav, omega_mat, g, omega, label: str) -> None:
    """Assert the frequency-domain determinant vanishes at every eigenfrequency.

    Masked (NaN) points are skipped; the error names the first sweep row
    that fails.
    """
    residual = determinant_residual(variant, omega_cav, omega_mat, g, omega)
    _raise_first_bad(
        residual > _DET_RESIDUAL_BOUND,
        PolaritonError,
        lambda i, where: f"internal inconsistency: {label} frequency-domain determinant residual "
        f"{residual[i]:.3e} exceeds {_DET_RESIDUAL_BOUND:g} at eigenfrequency {omega[i]}{where}",
        row="sweep row",
    )


# --------------------------------------------------------------------------
# kind: eigen_sweep


_COUPLING = (
    _Field("scaling", partial(_string, choices=("fixed", "geometric")), "fixed"),
    _Field("value", _NONNEGATIVE),
)


def _coupling_overrides(value, path: str) -> dict:
    overrides = {}
    for name, spec in _as_mapping(value, path).items():
        if name not in _BARE_MODELS:
            raise SchemaError(_join(path, name), f"expected one of {sorted(_BARE_MODELS)}")
        overrides[name] = _validate(_COUPLING, spec, _join(path, name))
    return overrides


_EIGEN_SWEEP = (
    _Field("variants", _VARIANT_LIST),
    _Field("omega_mat", _POSITIVE, 1.0),
    _Field("coupling", _COUPLING),
    _Field("coupling_overrides", _coupling_overrides, None),
    _Field("sweep", _POSITIVE_GRID),
    _Field("alternatives", partial(_name_list, choices=("A1", "A2", "A3"), nonempty=False), None),
)


def _coupling_value(spec: dict, omega_cav: np.ndarray, omega_mat: float):
    if spec["scaling"] == "fixed":
        return spec["value"] * omega_mat
    return spec["value"] * np.sqrt(omega_cav * omega_mat)


def _run_eigen_sweep(p: dict) -> _Table:
    alt_names = p["alternatives"] or []
    for alt in alt_names:
        base = _MODELS[alt][2]
        if base not in p["variants"]:
            message = f"{alt} is a dressed form of {base}; add it to variants"
            raise SchemaError("parameters.alternatives", message)
    overrides = p["coupling_overrides"] or {}
    omega_mat = p["omega_mat"]
    omega_cav = p["sweep"] * omega_mat
    columns = [("omega_cav/omega_mat (1)", p["sweep"])]

    def branch_columns(name, wc, wm, g):
        variant, tag, _ = _MODELS[name]
        plus, minus = branch_frequencies(variant, wc, wm, g)
        _check_det_residual(variant, wc, wm, g, plus, f"{name} upper branch")
        _check_det_residual(variant, wc, wm, g, minus, f"{name} lower branch")
        columns.append((f"omega_plus_{tag} (omega_mat)", plus / omega_mat))
        columns.append((f"omega_minus_{tag} (omega_mat)", minus / omega_mat))

    for name in p["variants"]:
        g = _coupling_value(overrides.get(name, p["coupling"]), omega_cav, omega_mat)
        branch_columns(name, omega_cav, omega_mat, g)

    for alt in alt_names:
        target, _, base = _MODELS[alt]
        g = _coupling_value(overrides.get(base, p["coupling"]), omega_cav, omega_mat)
        # an invalid dressing gives NaN parameters, which mask both branches
        branch_columns(alt, *dressed_parameters(target, omega_cav, omega_mat, g))

    return _Table(columns, extras={"omega_mat_eV": omega_mat})


# --------------------------------------------------------------------------
# kind: min_splitting


_MIN_SPLITTING = (
    _Field("variants", _VARIANT_LIST),
    _Field("omega_mat", _POSITIVE, 1.0),
    _Field("g_grid", _NONNEGATIVE_GRID),
)


def _run_min_splitting(p: dict) -> _Table:
    # in units of omega_mat the minimum splitting depends on g/omega_mat alone
    columns = [("g/omega_mat (1)", p["g_grid"])]
    for name in p["variants"]:
        variant, tag, _ = _MODELS[name]
        columns.append((f"Omega_min_{tag} (omega_mat)", min_splitting(variant, p["g_grid"], 1.0).Omega_min))
    return _Table(columns, extras={"omega_mat_eV": p["omega_mat"]})


# --------------------------------------------------------------------------
# kind: spectrum


_MAX_CURVES = 8

_PAIR = (
    _Field("omega_cav", _POSITIVE),
    _Field("omega_mat", _POSITIVE),
    _Field("kappa", _NONNEGATIVE, 0.0),
    _Field("gamma", _NONNEGATIVE, 0.0),
    _Field("f_cav", _POSITIVE),
    _Field("f_mat", _POSITIVE),
)

_PLACEMENT = (
    _Field("r_cav", _vector, (0.0, 0.0, 0.0)),
    _Field("r_mat", _vector),
    _Field("orientation_cav", _vector, (1.0, 0.0, 0.0)),
    _Field("orientation_mat", _vector, (1.0, 0.0, 0.0)),
)

_CURVE = (
    _Field("label", _string),
    _Field("variant", partial(_string, choices=("SpC", "MoC"))),
    *_PAIR,
    _Field("g", _number),
    _Field("R_cav", _POSITIVE, None),
)

_SPECTRUM = (
    _Field("omega_grid", _POSITIVE_GRID),
    _Field("E_inc", _POSITIVE, 1.0),
    _Field("orientation_cav", _vector, (1.0, 0.0, 0.0)),
    _Field("orientation_mat", _vector, (1.0, 0.0, 0.0)),
    _Field("curves", partial(_table_list, table=_CURVE, what="curve", maximum=_MAX_CURVES)),
)


def _drive_pair(spec: dict, variant: ModelVariant, g, e_inc: float, omega):
    """Driven response of the validated ``_PAIR`` fields of ``spec``, coupled by ``g``."""
    from .driven import DriveSpec, driven_response

    pair = OscillatorPair(spec["omega_cav"], spec["omega_mat"], spec["kappa"], spec["gamma"])
    model = CoupledModel(pair, variant, g)
    f_cav, f_mat = _reduced_strength(spec["f_cav"]), _reduced_strength(spec["f_mat"])
    return driven_response(model, DriveSpec(E_inc=e_inc, omega=omega, f_cav=f_cav, f_mat=f_mat))


def _run_spectrum(p: dict) -> _Table:
    from .driven import scattering_cross_section

    labels = [curve["label"] for curve in p["curves"]]
    for i, label in enumerate(labels):
        if not label or not all(c.isalnum() or c == "_" for c in label):
            raise SchemaError(
                f"parameters.curves.{i}.label", f"label must be alphanumeric/underscore, got {label!r}"
            )
    if len(set(labels)) != len(labels):
        raise SchemaError("parameters.curves", f"duplicate curve labels in {labels}")

    omega_grid, e_inc = p["omega_grid"], p["E_inc"]
    columns = [("omega (eV)", omega_grid)]
    for curve in p["curves"]:
        resp = _drive_pair(curve, _MODELS[curve["variant"]][0], curve["g"], e_inc, omega_grid)
        sigma = scattering_cross_section(resp, p["orientation_cav"], p["orientation_mat"], e_inc, omega_grid)
        columns.append((f"sigma_{curve['label']} (nm^2)", sigma))
        if curve["R_cav"] is not None:
            geometric = math.pi * curve["R_cav"] ** 2
            columns.append((f"sigma_norm_{curve['label']} (1)", sigma / geometric))
    return _Table(columns)


# --------------------------------------------------------------------------
# kind: fieldmap / fractions


_BOX = (
    _Field("L", _vector),
    _Field("V_eff", _POSITIVE),
    _Field("omega_cav", _POSITIVE),
    _Field("f_mat", _POSITIVE),
    _Field("emitter", _vector, (0.0, 0.0, 0.0)),
    _Field("orientation", _vector, (0.0, 0.0, 1.0)),
)


_LINE = (
    _Field("axis", _AXIS),
    _Field("start", _number),
    _Field("stop", _number),
    _Field("num", partial(_integer, minimum=2, maximum=_MAX_GRID_POINTS)),
    _Field("offset", _vector, (0.0, 0.0, 0.0)),
)

_NANOPARTICLE = (_Field("R_cav", _POSITIVE), *_PLACEMENT, *_PAIR)

_SCENE = partial(_string, choices=("box", "nanoparticle"))

_FIELDMAP = {
    "box": (
        _Field("scene", _SCENE),
        _Field("component", _AXIS, "z"),
        _Field("core_radius", _POSITIVE, 0.1),
        _Field("line", _LINE),
        _Field("box", _BOX + (_Field("omega_mat", _POSITIVE),)),
        _Field("g", _NONNEGATIVE),
        _Field("branches", _BRANCH_LIST),
    ),
    "nanoparticle": (
        _Field("scene", _SCENE),
        _Field("component", _AXIS, "x"),
        _Field("core_radius", _POSITIVE, 0.1),
        _Field("line", _LINE),
        _Field("nanoparticle", _NANOPARTICLE),
        _Field("g", _number),
        _Field("drive", (_Field("E_inc", _POSITIVE, 1.0), _Field("at", _BRANCH_LIST))),
    ),
}


def _box_scene(box: dict, omega_mat):
    """The ``BoxCavityScene`` of a validated ``_BOX`` mapping, with emitter frequency ``omega_mat``."""
    from .fields import BoxCavityScene

    return BoxCavityScene(
        box["L"], box["V_eff"], box["omega_cav"], box["emitter"], box["orientation"], box["f_mat"], omega_mat
    )


def _run_fieldmap(p: dict) -> _Table:
    from .fields import NanoparticleScene, dielectric_field_arrays, quasistatic_field_arrays

    line = p["line"]
    if line["stop"] <= line["start"]:
        raise SchemaError("parameters.line.stop", f"must be > start ({line['start']}), got {line['stop']}")
    t = np.linspace(line["start"], line["stop"], line["num"])
    positions = np.tile(np.asarray(line["offset"], dtype=float), (line["num"], 1))
    positions[:, _AXES[line["axis"]]] += t
    component, core_radius, g = p["component"], p["core_radius"], p["g"]
    columns = [(f"{line['axis']} (nm)", t)]

    def field_columns(fields, name):
        """Append the real parts of one field component, and the exclusion mask."""
        comp = _AXES[component]
        columns.append((f"E_cav_{component}_{name} (arb)", fields.E_cav[:, comp].real))
        columns.append((f"E_mat_{component}_{name} (arb)", fields.E_mat[:, comp].real))
        columns.append((f"E_total_{component}_{name} (arb)", fields.E_total[:, comp].real))
        columns.append((f"excluded_{name} (1)", fields.excluded.astype(int)))

    if p["scene"] == "box":
        scene = _box_scene(p["box"], p["box"]["omega_mat"])
        plus, minus = branch_frequencies(ModelVariant.MOC, scene.omega_cav, scene.omega_mat, g)
        # the upper-branch ratio has a pole (reported as None) where that
        # branch is the bare cavity, as it is at g = 0 with omega_mat <= omega_cav
        try:
            ratio = mode_ratio(ModelVariant.MOC, scene.omega_cav, scene.omega_mat, g, plus)
            rho_plus = float(ratio.imag)
        except PoleError:
            rho_plus = None
        extras = {"omega_plus_eV": float(plus), "omega_minus_eV": float(minus), "rho_plus": rho_plus}
        for name in p["branches"]:
            fields = dielectric_field_arrays(
                scene, g, _BRANCHES[name], positions, core_radius=core_radius
            )
            field_columns(fields, name)
        return _Table(columns, extras=extras)

    spec = p["nanoparticle"]
    scene = NanoparticleScene(
        spec["R_cav"], spec["r_cav"], spec["r_mat"], spec["orientation_cav"], spec["orientation_mat"]
    )
    plus, minus = branch_frequencies(ModelVariant.SPC, spec["omega_cav"], spec["omega_mat"], g)
    if np.isnan(minus):
        raise PolaritonError("lower hybrid mode is not real; cannot set the drive frequency")
    drive_freqs = {"upper": float(plus), "lower": float(minus)}
    extras = {"omega_plus_eV": drive_freqs["upper"], "omega_minus_eV": drive_freqs["lower"]}
    for name in p["drive"]["at"]:
        resp = _drive_pair(spec, ModelVariant.SPC, g, p["drive"]["E_inc"], drive_freqs[name])
        fields = quasistatic_field_arrays(scene, resp, positions, core_radius=core_radius)
        field_columns(fields, name)
    return _Table(columns, extras=extras)


_FRACTIONS = (
    _Field("box", _BOX),
    _Field("g", _NONNEGATIVE),
    _Field("position", _vector),
    _Field("detuning_grid", _grid),
    _Field("branches", _BRANCH_LIST, ("upper", "lower")),
    _Field("core_radius", _POSITIVE, 0.1),
)


def _run_fractions(p: dict) -> _Table:
    from .fields import contribution_fractions

    box, detuning = p["box"], p["detuning_grid"]
    omega_cav = box["omega_cav"]
    bad = detuning[detuning <= -omega_cav]
    if bad.size:
        raise SchemaError(
            "parameters.detuning_grid",
            f"omega_mat = omega_cav + detuning must stay positive; got detuning {bad[0]}",
        )

    scene = _box_scene(box, omega_cav + detuning)
    columns = [("detuning (eV)", detuning)]
    for name in p["branches"]:
        sigma_cav, sigma_mat = contribution_fractions(
            scene, p["g"], _BRANCHES[name], p["position"], core_radius=p["core_radius"]
        )
        columns.append((f"Sigma_cav_{name} (1)", sigma_cav))
        columns.append((f"Sigma_mat_{name} (1)", sigma_mat))
    return _Table(columns)


# --------------------------------------------------------------------------
# kind: ensemble


def _lattice_shape(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SchemaError(path, f"expected [nx, ny, nz], got {value!r}")
    shape = tuple(_integer(v, _join(path, i), minimum=1) for i, v in enumerate(value))
    if math.prod(shape) > _MAX_DIPOLES:
        raise SchemaError(path, f"at most {_MAX_DIPOLES} dipoles (nx * ny * nz), got {math.prod(shape)}")
    return shape


_MODE = (
    _Field("n", partial(_integer, minimum=1)),
    _Field("k_parallel", partial(_vector, size=2), (0.0, 0.0)),
)

_CAVITY = (
    _Field("modes", partial(_table_list, table=_MODE, what="mode", maximum=_MAX_MODES)),
    _Field("L_cav", _POSITIVE),
    _Field("lateral_period", _POSITIVE),
    _Field("epsilon_inf", _EPSILON_INF, 1.0),
)

_LATTICE = (
    _Field("shape", _lattice_shape),
    _Field("spacing", _POSITIVE),
    _Field("f_dip", _POSITIVE),
    _Field("omega_dip", _POSITIVE),
    _Field("orientation", _vector, (1.0, 0.0, 0.0)),
)

_ENSEMBLE = (
    _Field("cavity", _CAVITY),
    _Field("lattice", _LATTICE),
    _Field("mode", _MODE),
    _Field("include_dipole_dipole", _boolean, True),
    _Field("tolerance", _POSITIVE, 1e-2),
)


def _run_ensemble(p: dict) -> _Table:
    from .ensemble import (
        FabryPerotSpec,
        _bright_band_spread,
        build_full_system,
        cubic_dipole_lattice,
        full_vs_reduced_check,
    )

    cav, lat = p["cavity"], p["lattice"]
    fp = FabryPerotSpec(
        L_cav=cav["L_cav"],
        lateral_period=cav["lateral_period"],
        modes=tuple((m["n"], m["k_parallel"]) for m in cav["modes"]),
        epsilon_inf=cav["epsilon_inf"],
    )
    mode = (p["mode"]["n"], p["mode"]["k_parallel"])
    include_dd = p["include_dipole_dipole"]
    lattice = cubic_dipole_lattice(
        fp, lat["spacing"], lat["shape"], lat["f_dip"], lat["omega_dip"], orientation=lat["orientation"]
    )
    full = build_full_system(lattice, fp, include_dipole_dipole=include_dd)
    report = full_vs_reduced_check(
        lattice, fp, mode, tolerance=p["tolerance"], include_dipole_dipole=include_dd
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
    # one mode and no dipole-dipole band: the reduction is the MoC quartic itself
    exact = full.n_modes == 1 and (not include_dd or lattice.n_dip == 1)
    extras = {
        "n_dipoles": lattice.n_dip,
        "n_modes": full.n_modes,
        "include_dipole_dipole": include_dd,
        "reduction_check_measures": "round-off only" if exact else "reduction",
        "bright_band_spread_eV": _bright_band_spread(full, fp.modes.index(cm.mode), lattice.omega_dip),
    }
    return _Table(columns, extras=extras)


# --------------------------------------------------------------------------
# kind: permittivity


_PERMITTIVITY = (
    _Field("models", partial(_name_list, choices=("MoC", "SpC"))),
    _Field("epsilon_inf", _EPSILON_INF, 1.0),
    _Field("fit", (_Field("omega_to", _POSITIVE), _Field("omega_lo", _number)), None),
    _Field("Omega_mat", _POSITIVE, _OPTIONAL),
    _Field("G", _NONNEGATIVE, _OPTIONAL),
    _Field("omega_grid", _NONNEGATIVE_GRID),
)


def _run_permittivity(p: dict) -> _Table:
    from .material import PermittivityModel, permittivity, reststrahlen_band, reststrahlen_fit

    fit, epsilon_inf = p["fit"], p["epsilon_inf"]
    if fit is not None and (p["Omega_mat"] is not None or p["G"] is not None):
        raise SchemaError("parameters.fit", "give either fit or (Omega_mat, G), not both")
    if fit is None:
        for key in ("Omega_mat", "G"):
            if p[key] is None:
                raise SchemaError(f"parameters.{key}", "missing required key")
    if "SpC" in p["models"] and epsilon_inf != 1.0:
        raise SchemaError(
            "parameters.epsilon_inf",
            "the amplitude-coupled permittivity has no high-frequency screening; use 1",
        )

    extras = {}
    if fit is not None:
        fitted = reststrahlen_fit(fit["omega_to"], fit["omega_lo"], epsilon_inf=epsilon_inf)
        omega_mat, g_coupling = fitted.Omega_mat, fitted.G
        extras["fit_omega_to_eV"] = fit["omega_to"]
        extras["fit_omega_lo_eV"] = fit["omega_lo"]
    else:
        omega_mat, g_coupling = p["Omega_mat"], p["G"]
    omega_grid = p["omega_grid"]
    columns = [("omega/Omega_mat (1)", omega_grid / omega_mat)]
    for name in p["models"]:
        variant, tag, _ = _MODELS[name]
        model = PermittivityModel(omega_mat, g_coupling, epsilon_inf, variant)
        if variant is ModelVariant.MOC:
            extras["reststrahlen_lo_eV"] = reststrahlen_band(model)[1]
        columns.append((f"eps_{tag} (1)", np.asarray(permittivity(model, omega_grid))))
    extras["Omega_mat_eV"] = omega_mat
    extras["G_eV"] = g_coupling
    return _Table(columns, extras=extras)


# --------------------------------------------------------------------------
# kind: dispersion


_DISPERSION = (
    _Field("models", partial(_name_list, choices=("MoC", "A1", "A2"))),
    _Field("omega_to", _POSITIVE, 1.0),
    _Field("G_over_omega_to", _NONNEGATIVE),
    _Field("epsilon_inf", _EPSILON_INF, 1.0),
    _Field("k_grid", _NONNEGATIVE_GRID),
    _Field("content", partial(_string, choices=("dispersion", "couplings")), "dispersion"),
)


def _run_dispersion(p: dict) -> _Table:
    from .material import PermittivityModel, bulk_dispersion, coupling_profiles, reststrahlen_band

    omega_to, epsilon_inf, k_grid_rel = p["omega_to"], p["epsilon_inf"], p["k_grid"]
    g_coupling = p["G_over_omega_to"] * omega_to
    k_grid = k_grid_rel * omega_to / UNITS.hbar_c
    omega_lo = reststrahlen_band(PermittivityModel(omega_to, g_coupling))[1]
    columns = [("ck/omega_TO (1)", k_grid_rel)]
    if p["content"] == "dispersion":
        for name in p["models"]:
            variant, tag, _ = _MODELS[name]
            branches = bulk_dispersion(variant, omega_to, g_coupling, k_grid, epsilon_inf=epsilon_inf)
            columns.append((f"omega_lower_{tag} (omega_TO)", branches.lower / omega_to))
            columns.append((f"omega_upper_{tag} (omega_TO)", branches.upper / omega_to))
            columns.append((f"omega_photon_{tag} (omega_TO)", branches.photon / omega_to))
    else:
        for name in p["models"]:
            variant, tag, _ = _MODELS[name]
            profile = coupling_profiles(variant, omega_to, g_coupling, k_grid, epsilon_inf=epsilon_inf)
            columns.append((f"G_{tag} (omega_TO)", np.asarray(profile) / omega_to))
    return _Table(columns, extras={"omega_lo_over_omega_to": omega_lo / omega_to})


# --------------------------------------------------------------------------
# kind: oracle


def _diamagnetic(value, path: str):
    """The quantum oracle's ``D``: a number, or the model tag whose D applies."""
    if isinstance(value, str):
        return _string(value, path, choices=("SpC", "MoC"))
    return _number(value, path, minimum=0.0)


_FLAVOR = _Field("flavor", partial(_string, choices=("quantum", "polarizability")), "quantum")

_ORACLE = {
    "quantum": (
        _FLAVOR,
        _Field("omega_cav", _POSITIVE),
        _Field("omega_mat", _POSITIVE),
        _Field("g_qed", _NONNEGATIVE),
        _Field("D", _diamagnetic, 0.0),
        _Field("n_max", partial(_integer, minimum=2, maximum=math.isqrt(_MAX_FOCK_ROWS) - 1), 40),
        _Field("n_levels", partial(_integer, minimum=1), 5),
        _Field("rwa", _boolean, False),
        _Field("frame_check", _boolean, False),
    ),
    "polarizability": (
        _FLAVOR,
        *_PAIR,
        *_PLACEMENT,
        _Field("E_inc", _POSITIVE, 1.0),
        _Field("omega_grid", _POSITIVE_GRID),
    ),
}


def _run_oracle(p: dict) -> _Table:
    from .driven import polarizability_oracle
    from .hopfield import (
        HopfieldParams,
        _ladder_deviation,
        frame_equivalence_check,
        hopfield_quartic_eigen,
        truncated_fock_spectrum,
    )

    omega_cav, omega_mat = p["omega_cav"], p["omega_mat"]
    if p["flavor"] == "quantum":
        g_qed, d_value = p["g_qed"], p["D"]
        if d_value == "SpC":
            diamagnetic = 0.0
        elif d_value == "MoC":
            diamagnetic = g_qed**2 / omega_mat
        else:
            diamagnetic = d_value
        if p["frame_check"] and p["rwa"]:
            raise SchemaError(
                "parameters.frame_check",
                "needs rwa: false; the dipole-gauge partner matches the full Hamiltonian, not its RWA",
            )
        hp = HopfieldParams(omega_cav, omega_mat, g_qed, diamagnetic)
        spectrum = truncated_fock_spectrum(hp, p["n_max"], p["n_levels"], rwa=p["rwa"])
        extras = {
            "ground_state_energy_eV": spectrum.ground_state_energy,
            "truncation": spectrum.truncation,
            "D_eV": diamagnetic,
        }
        if not p["rwa"]:
            w_plus, w_minus = hopfield_quartic_eigen(hp)
            extras["omega_minus_quartic_eV"] = w_minus
            extras["omega_plus_quartic_eV"] = w_plus
            extras["ground_state_shift_eV"] = 0.5 * (w_plus + w_minus) - 0.5 * (omega_cav + omega_mat)
            extras["fock_ladder_deviation_eV"] = _ladder_deviation(spectrum, w_plus, w_minus)
        if p["frame_check"]:
            extras["frame_deviation_eV"] = frame_equivalence_check(hp, spectrum)
            # the partner is the same matrix at resonance, and the same operator
            # with its modes relabeled without the self-term
            same = diamagnetic == 0.0 or omega_cav == omega_mat
            extras["frame_check_measures"] = "round-off only" if same else "truncation"
        levels = np.arange(1, len(spectrum.excitation_energies) + 1)
        columns = [
            ("level (1)", levels),
            ("excitation_energy (eV)", np.asarray(spectrum.excitation_energies)),
        ]
        return _Table(columns, extras=extras)

    kappa, gamma, f_cav, f_mat = p["kappa"], p["gamma"], p["f_cav"], p["f_mat"]
    r_cav, r_mat, n_dcav, n_dmat = p["r_cav"], p["r_mat"], p["orientation_cav"], p["orientation_mat"]
    e_inc, omega_grid = p["E_inc"], p["omega_grid"]
    g_geo = coupling_dipole_dipole(f_cav, f_mat, r_cav, r_mat, n_dcav, n_dmat, omega_cav, omega_mat)
    reference = polarizability_oracle(
        _reduced_strength(f_cav), _reduced_strength(f_mat), omega_cav, omega_mat, kappa, gamma,
        r_cav, r_mat, n_dcav, n_dmat, e_inc, omega_grid,
    )
    resp = _drive_pair(p, ModelVariant.SPC, g_geo, e_inc, omega_grid)
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
# dispatch: each kind's field table and handler


_HANDLERS = {
    "eigen_sweep": (_EIGEN_SWEEP, _run_eigen_sweep),
    "min_splitting": (_MIN_SPLITTING, _run_min_splitting),
    "spectrum": (_SPECTRUM, _run_spectrum),
    "fieldmap": (_FIELDMAP, _run_fieldmap),
    "fractions": (_FRACTIONS, _run_fractions),
    "ensemble": (_ENSEMBLE, _run_ensemble),
    "permittivity": (_PERMITTIVITY, _run_permittivity),
    "dispersion": (_DISPERSION, _run_dispersion),
    "oracle": (_ORACLE, _run_oracle),
}

SCENARIO_KINDS = tuple(_HANDLERS)


def _schema_version(value, path: str) -> int:
    if _integer(value, path, minimum=1) != SCHEMA_VERSION:
        raise SchemaError(
            path, f"unsupported schema version {value}; this library writes {SCHEMA_VERSION}"
        )
    return value


_OUTPUT = (
    _Field("path", _string, None),
    _Field("format", partial(_string, choices=("csv", "svg")), "csv"),
)

_DOCUMENT = (
    _Field("kind", partial(_string, choices=SCENARIO_KINDS)),
    _Field("schema", _schema_version, SCHEMA_VERSION),
    _Field("parameters", _as_mapping),
    _Field("output", _OUTPUT, None),
)


# --------------------------------------------------------------------------
# artifact output


_CSV_BLOCK = 4096  # cells per block, so that the temporaries do not grow with the table
# 10**(k-300) = (hi + lo) * 2**shift to 106 bits, as hi's Dekker halves, lo and shift; NaN until first used
_P10 = np.full((4, 650), np.nan)


def _scaled(f, b, k):
    """``f * 2**b * 10**k`` as a normalized double-double ``(hi, lo)``, for f in [0.5, 1)."""
    k = k + 300
    for j in set(k[np.isnan(_P10[0].take(k))].tolist()):
        n = 10 ** abs(j - 300)
        width = n.bit_length()  # q * 2**t: 10**(j-300) to 121 bits
        q, t = (n << 121 >> width, width - 121) if j >= 300 else ((1 << width + 120) // n, -width - 120)
        hi = math.ldexp(q >> 68, -52)
        split = hi * 134217729.0 - (hi * 134217729.0 - hi)
        _P10[:, j] = split, hi - split, math.ldexp(q & (1 << 68) - 1, -120), t + 120
    hh, hl, lo, shift = _P10.take(k, axis=1)
    p = f * (hh + hl)  # Dekker's product: p + err is f * hi exactly
    fh = f * 134217729.0 - (f * 134217729.0 - f)
    err = fh * hh - p + fh * hl + (f - fh) * hh + (f - fh) * hl + f * lo
    t = (b + shift).astype(np.int32)  # np.ldexp is slow for int64 exponents
    p, err = np.ldexp(p, t), np.ldexp(err, t)
    return p + err, err - (p + err - p)


@cache
def _csv_tables():
    """Lookup tables of :func:`_g17_cells`: digits, exponent classes and slot layouts."""
    d = np.arange(48, 58, dtype="<u4")  # "0000" .. "9999" as little-endian words
    digits4 = np.add.outer(np.add.outer(d, d << 8), np.add.outer(d << 16, d << 24)).ravel()
    # a class per exponent E = index - 330: 0-20 fixed (E = -4..16), 21-24 e+dd, e+ddd, e-dd, e-ddd
    e = np.arange(-330, 310)
    form = np.where((e < -4) | (e > 16), 21 + 2 * (e < 0) + (abs(e) >= 100), e + 4) * 17 - 1
    # a 30-byte slot per (sign, class, digit count): sign, "0.000" lead, 17 digits and a point, "e+308",
    # separator; as a template, and the slots taking their own digit or the one before
    sign, cls, count = (v.reshape(-1, 1) for v in np.indices((2, 25, 18))[:, :, :, 1:])
    j, exp, sci = np.arange(30) - 6, cls - 4, cls >= 21  # j: the digit slot
    point = np.where(sci, 1, np.where(exp >= 0, exp + 1, 17))
    tpl = np.select([j == point, j == -6, j == 23], [46 * (point < count), 45 * sign, 44])
    tpl[:, 1:6] = np.where(np.arange(5) < np.where(exp < 0, 1 - exp, 0), np.frombuffer(b"0.000", np.uint8), 0)
    tpl[:, 24:26] = sci * np.hstack([np.full_like(cls, 101), np.where(cls >= 23, 45, 43)])
    own = (j >= 0) & (j < np.where(exp < 0, count, point))  # fixed notation keeps every integer digit
    own[:, 26:29] = sci & np.hstack([cls % 2 == 0, sci, sci])  # two or three exponent digits
    masks = (tpl, own, (j > point) & (j <= count))
    layout = [np.ascontiguousarray(m, np.uint8).view("V30").ravel() for m in masks]
    return digits4, form, layout


def _g17_cells(x):
    """``"{:.17g}".format`` of each float64 of ``x``, in NUL-padded 30-byte slots ending in ','.

    |x| = f * 2**b is scaled by 10**(16 - E) and rounded to 17 digits; a scaled value
    within 2**-30 of a half-integer, a tie or too near one to call, is left to Python.
    """
    digits4, form, layout = _csv_tables()
    real = np.isfinite(x) & (x != 0)
    a = np.where(real, np.abs(x), 1.0)
    f, b = np.frexp(a)
    exp = np.floor(np.log10(a)).astype(np.int32)
    hi, lo = _scaled(f, b, 16 - exp)
    fix = np.flatnonzero((hi < 1e16) | (hi > 1e17) | (hi == 1e16) & (lo < 0) | (hi == 1e17) & (lo >= 0))
    if fix.size:  # the estimate of E = floor(log10 |x|) was one off
        exp[fix] += np.where(hi[fix] > 5e16, 1, -1)
        hi[fix], lo[fix] = _scaled(f[fix], b[fix], 16 - exp[fix])
    ties = np.flatnonzero(np.abs(np.abs(lo - np.rint(lo)) - 0.5) < 2.0**-30)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    up = d == 10**17  # rounded up to the next power of ten
    d, exp = np.where(up, 10**16, d), exp + up
    top, low = np.divmod(d, 10**8)  # the lead digit, then four groups of four
    groups = np.stack(np.divmod(np.stack([top % 10**8, low], axis=1), 10**4), axis=-1).reshape(-1, 4)
    flat = np.zeros(len(x) * 30 + 1, np.uint8)  # the cells, and flat[:-1] the same one byte later
    cells = flat[1:].reshape(-1, 30)
    cells[:, 6] = top // 10**8 + 48
    cells[:, 7:23] = digits4.take(groups).view(np.uint8)
    cells[:, 26:29] = digits4.take(np.abs(exp)).view(np.uint8).reshape(-1, 4)[:, 1:]
    count = 17 - np.argmax(cells[:, 22:5:-1] != 48, axis=1)  # digits up to the last nonzero one
    for where, word in ((np.isnan(x), b"nan"), (np.isinf(x), b"inf"), (x == 0, b"0")):
        cells[where, 6 : 6 + len(word)] = np.frombuffer(word, np.uint8)
        exp[where] = len(word) - 1
    code = form.take(exp + 330) + count + 425 * (np.signbit(x) & ~np.isnan(x))
    tpl, own, shifted = (table.take(code).view(np.uint8) for table in layout)
    text = tpl + flat[1:] * own + flat[:-1] * shifted
    for i in ties.tolist():
        text[30 * i : 30 * i + 29] = np.frombuffer("{:.17g}".format(x[i]).encode().ljust(29, b"\0"), np.uint8)
    return text.reshape(-1, 30)


def _render_csv(table: _Table) -> bytes:
    """``"{:.17g}".format(x)`` of each float cell and ``str(n)`` of each integer one, a block at a time."""
    step = max(1, _CSV_BLOCK // len(table.columns))
    chunks = [",".join(cell for cell, _ in table.columns).encode("utf-8") + b"\n"]
    for start in range(0, table.n_rows(), step):
        block = [values[start : start + step] for _, values in table.columns]
        floats = np.column_stack([np.zeros(len(v)) if v.dtype.kind in "iu" else v for v in block])
        cells = _g17_cells(floats.astype(float).ravel()).reshape(len(floats), len(block), 30)
        cells[:, -1, -1] = ord("\n")
        for c, values in enumerate(block):
            if values.dtype.kind in "iu":
                cells[:, c, :-1] = values.astype("S29").view(np.uint8).reshape(-1, 29)
        chunks.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(chunks)


_SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    "#bcbd22", "#e377c2", "#393b79", "#637939",
)


def _render_svg(table: _Table, title: str) -> bytes:
    """Minimal deterministic line plot: first column is x, the rest are series.

    The title and the column headers are XML-escaped: both can come from the
    document (the ``output.path`` stem, the spectrum curve labels).
    ``html.escape`` is used because ``xml.sax.saxutils`` imports
    ``urllib.request``, about 25 ms of start-up; ``html`` itself is imported
    here, since only SVG output needs it.
    """
    import html

    width, height = 720, 480
    left, right, top, bottom = 70.0, 20.0, 34.0, 50.0
    x = np.asarray(table.columns[0][1], dtype=float)
    series = [(cell, np.asarray(vals, dtype=float)) for cell, vals in table.columns[1:]]
    finite = np.isfinite(x)
    finite_x = x[finite]
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

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left:.1f}" y="20" font-size="14">{html.escape(title, quote=False)}</text>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        f'stroke="black"/>',
        f'<text x="{left:.1f}" y="{height - bottom + 16:.1f}">{x0:.6g}</text>',
        f'<text x="{width - right:.1f}" y="{height - bottom + 16:.1f}" text-anchor="end">{x1:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{height - bottom:.1f}" text-anchor="end">{y0:.6g}</text>',
        f'<text x="{left - 6:.1f}" y="{top + 10:.1f}" text-anchor="end">{y1:.6g}</text>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle">{html.escape(table.columns[0][0], quote=False)}</text>',
    ]
    for idx, (cell, values) in enumerate(series):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        # a run is a stretch of consecutive rows where both x and y are finite
        shown = np.flatnonzero(finite & np.isfinite(values))
        px = (left + (x[shown] - x0) / (x1 - x0) * (width - left - right)).tolist()
        py = (height - bottom - (values[shown] - y0) / (y1 - y0) * (height - top - bottom)).tolist()
        cuts = (np.flatnonzero(np.diff(shown) > 1) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, len(shown)]):
            if stop - start == 1:
                parts.append(f'<circle cx="{px[start]:.3f}" cy="{py[start]:.3f}" r="2" fill="{color}"/>')
            elif stop > start:  # an all-NaN series is one empty run
                points = " ".join(map("{:.3f},{:.3f}".format, px[start:stop], py[start:stop]))
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        ly = top + 14.0 * idx
        parts.append(
            f'<line x1="{width - right - 150:.1f}" y1="{ly:.1f}" x2="{width - right - 130:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - right - 124:.1f}" y="{ly + 4:.1f}">{html.escape(cell, quote=False)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path`` with the mode ``open(path, "wb")`` gives, then rename it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    for attempt in itertools.count():
        tmp = path.parent / f".{path.name}.{os.getpid()}.{attempt}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
            break
        except FileExistsError:  # another write of this path under way, or left by a process of the same id
            pass
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


def run_scenario_document(
    document,
    *,
    source_name: str,
    input_bytes: bytes,
    out_dir=None,
    default_stem: str | None = None,
) -> ScenarioRun:
    """Validate and execute one scenario document, writing its artifacts.

    The handler runs with numpy's overflow, divide-by-zero and invalid-value
    errors raised; those, Python arithmetic errors and singular linear
    solves are reported as a :class:`PolaritonError` naming the scenario.
    """
    doc = _validate(_DOCUMENT, {} if document is None else document, "")
    kind = doc["kind"]
    output = doc["output"] or {"path": None, "format": "csv"}
    stem = default_stem or kind
    csv_path = Path(output["path"] or f"{stem}.csv")
    if not csv_path.is_absolute():
        csv_path = Path(out_dir or ".") / csv_path
    svg_path = csv_path.with_suffix(".svg") if output["format"] == "svg" else None
    if svg_path == csv_path:
        raise SchemaError(
            "output.path",
            f"{output['path']!r} would name both the CSV and the SVG; give it another suffix, such as .csv",
        )

    spec, handler = _HANDLERS[kind]
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table = handler(_validate(spec, doc["parameters"], "parameters"))
    except PolaritonError as exc:
        raise type(exc)(f"scenario {source_name!r} ({kind}): {exc}") from exc
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise PolaritonError(
            f"scenario {source_name!r} ({kind}): {type(exc).__name__}: {exc}"
        ) from exc

    csv_bytes = _render_csv(table)
    _atomic_write(csv_path, csv_bytes)
    outputs = {csv_path.name: {"sha256": hashlib.sha256(csv_bytes).hexdigest(), "bytes": len(csv_bytes)}}
    if svg_path is not None:
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
    summary.update(table.extras)
    summary_bytes = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("utf-8")
    summary_path = csv_path.with_suffix(".summary.json")
    _atomic_write(summary_path, summary_bytes)
    return ScenarioRun(kind=kind, csv_path=csv_path, summary_path=summary_path, summary=summary, svg_path=svg_path)


def load_scenario_file(path) -> tuple:
    """Parse a scenario file; returns (document, raw bytes).

    A key repeated in one mapping is a :class:`SchemaError`, where YAML would
    keep its last value.  Keys merged in with ``<<`` still give way to the
    mapping's own keys.
    """
    import yaml  # only files are YAML; a figure document is built in code

    class UniqueKeyLoader(yaml.SafeLoader):
        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)  # its keys as written: no merge spliced in yet
            keys = set()
            for key_node, _ in node.value:
                if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                if (key_node.tag, key_node.value) in keys:
                    at = f"line {key_node.start_mark.line + 1}"
                    raise SchemaError("(file)", f"key {key_node.value!r} is repeated in one mapping ({at})")
                keys.add((key_node.tag, key_node.value))
            return node

    raw = Path(path).read_bytes()
    try:
        document = yaml.load(raw, Loader=UniqueKeyLoader)
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


# the Fig. 3 nanosphere (cavity) and emitter (matter); a spectrum curve detunes omega_mat
_FIG3_PAIR = dict(omega_cav=3.0, omega_mat=3.0, kappa=0.020, gamma=0.010, f_cav=4345.0**2, f_mat=118.74**2)
_SPC_MOC = ("SpC", "MoC")
_WITH_LINEARIZED = ("SpC", "MoC", "Linearized")
_SPC_VS_MOC = (("spc", "SpC", 3.0), ("mc", "MoC", 3.0))


def _fig2_box(**extra) -> dict:
    return {
        "L": [300.0, 300.0, 200.0],
        "V_eff": 4.483e6,
        "omega_cav": 3.0,
        "f_mat": dipole_moment_to_oscillator_strength(15.0, 3.0).value,
        "emitter": [0.0, 0.0, 0.0],
        "orientation": [0.0, 0.0, 1.0],
        **extra,
    }


def _sweep_doc(coupling_value: float, variants) -> dict:
    return {
        "kind": "eigen_sweep",
        "parameters": {
            "variants": list(variants),
            "omega_mat": 1.0,
            "coupling": {"scaling": "fixed", "value": coupling_value},
            "sweep": {"start": 0.2, "stop": 2.0, "num": 601},
        },
    }


def _geometric_sweep_doc() -> dict:
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


def _min_splitting_doc(variants) -> dict:
    return {
        "kind": "min_splitting",
        "parameters": {
            "variants": list(variants),
            "omega_mat": 1.0,
            "g_grid": {"start": 0.0, "stop": 0.5, "num": 251},
        },
    }


def _box_fieldmap_doc() -> dict:
    return {
        "kind": "fieldmap",
        "parameters": {
            "scene": "box",
            "box": _fig2_box(omega_mat=2.9985),
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


def _nanoparticle_fieldmap_doc() -> dict:
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
                **_FIG3_PAIR,
            },
            "g": 0.1 * 3.0,
            "drive": {"E_inc": 1.0, "at": ["upper", "lower"]},
            "line": {"axis": "x", "start": -20.0, "stop": 20.0, "num": 1601},
            "component": "x",
            "core_radius": 0.1,
        },
    }


def _spectrum_doc(g: float, curves, start: float, stop: float) -> dict:
    """Nanoparticle spectra at one coupling ``g``, one per ``(label, variant, omega_mat)``."""
    return {
        "kind": "spectrum",
        "parameters": {
            "omega_grid": {"start": start, "stop": stop, "num": 1201},
            "E_inc": 1.0,
            "orientation_cav": [1.0, 0.0, 0.0],
            "orientation_mat": [1.0, 0.0, 0.0],
            "curves": [
                {**_FIG3_PAIR, "label": label, "variant": variant, "omega_mat": omega_mat, "g": g}
                for label, variant, omega_mat in curves
            ],
        },
    }


def _permittivity_doc() -> dict:
    return {
        "kind": "permittivity",
        "parameters": {
            "models": ["MoC", "SpC"],
            "Omega_mat": 1.0,
            "G": 0.3,
            "omega_grid": {"start": 0.0, "stop": 3.0, "num": 1200, "sampling": "midpoints"},
        },
    }


def _dispersion_doc(models, content: str) -> dict:
    return {
        "kind": "dispersion",
        "parameters": {
            "models": list(models),
            "omega_to": 0.1,
            "G_over_omega_to": 0.3,
            "k_grid": {"start": 0.0, "stop": 10.0, "num": 501},
            "content": content,
        },
    }


# each figure id and the document builder, bound to its arguments, that states it
FIGURES = {
    "fig1c": partial(_sweep_doc, 0.1, _SPC_MOC),
    "fig1d": partial(_sweep_doc, 0.3, _SPC_MOC),
    "fig1e": partial(_min_splitting_doc, _SPC_MOC),
    "fig2b": _box_fieldmap_doc,
    "fig2c": partial(_fractions_doc, 2.5e-4 * 3.0),
    "fig2d": partial(_fractions_doc, 0.2 * 3.0),
    "fig3b": _nanoparticle_fieldmap_doc,
    "fig3c": partial(_spectrum_doc, 0.1 * 3.0, (("tuned", "SpC", 3.0), ("detuned", "SpC", 3.2)), 2.4, 3.6),
    "fig3d": partial(_spectrum_doc, 1e-2 * 3.0, _SPC_VS_MOC, 2.85, 3.15),
    "fig3e": partial(_spectrum_doc, 0.3 * 3.0, _SPC_VS_MOC, 1.6, 4.6),
    "fig4b": _permittivity_doc,
    "figS1a": partial(_sweep_doc, 0.1, _WITH_LINEARIZED),
    "figS1b": partial(_sweep_doc, 0.3, _WITH_LINEARIZED),
    "figS1c": partial(_min_splitting_doc, _WITH_LINEARIZED),
    "figS2": _geometric_sweep_doc,
    "figS3a": partial(_dispersion_doc, ("MoC",), "dispersion"),
    "figS3b": partial(_dispersion_doc, ("A1",), "dispersion"),
    "figS3c": partial(_dispersion_doc, ("A2",), "dispersion"),
    "figS3d": partial(_dispersion_doc, ("MoC", "A1", "A2"), "couplings"),
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
