"""Scenario documents: what each of the nine kinds accepts and computes, and how a document runs.

A scenario is a YAML mapping with a ``kind`` selecting one of the nine
drivers below, a ``parameters`` block mirroring the corresponding module
types, and an optional ``output`` block.  Every scenario is deterministic
end to end -- there is no RNG anywhere in the pipeline.  Each driver returns
a table of integer or float columns; :mod:`polariton_lab._render` decides its
CSV and SVG text and writes them, and :mod:`polariton_lab.figures` holds the
documents behind the ``reproduce`` figure ids.  The schema stays with the
drivers: each kind's field table is written in its primitives.

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

Only ``models``, ``units``, ``_render`` and ``figures`` are imported with this
module.  Each driver imports the layer it runs when it is called, and ``yaml``
is imported only to parse a file, so a ``reproduce`` process loads its own
figure's layer alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import PoleError, PolaritonError, SchemaError, __version__
from ._render import _atomic_write, _render_csv, _render_svg, _Table
from .figures import FIGURE_IDS, figure_document
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
# kind: eigen_sweep


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
        _frame_partner,
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
        if p["frame_check"]:
            _frame_partner(hp)  # a document without a partner fails before the solve, not after it
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
    csv_path = Path(out_dir or ".", output["path"] or f"{default_stem or kind}.csv")  # an absolute path stays as is
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

    outputs = {csv_path.name: _atomic_write(csv_path, _render_csv(table))}
    if svg_path is not None:
        outputs[svg_path.name] = _atomic_write(svg_path, _render_svg(table, csv_path.stem))

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
    summary_path = csv_path.with_suffix(".summary.json")
    _atomic_write(summary_path, (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode("utf-8"))
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
