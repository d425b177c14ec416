"""The figure registry: the scenario document behind each ``reproduce`` figure id.

``FIGURES`` maps each canned figure id to a document builder bound to that
figure's published parameterization (:func:`functools.partial`, or the bare
builder when it takes none); every call returns a fresh document.  Of the
layers, only ``units`` is imported, for the Fig. 2 emitter strength.
"""

from functools import partial

from . import SchemaError
from .units import dipole_moment_to_oscillator_strength


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


def _sweep_doc(coupling_value: float, variants, omega_mat: float = 1.0, geometric=()) -> dict:
    """An ``eigen_sweep`` at a fixed coupling, scaled as sqrt(omega_cav omega_mat) for the ``geometric`` variants."""
    overrides = {name: {"scaling": "geometric", "value": coupling_value} for name in geometric}
    return {
        "kind": "eigen_sweep",
        "parameters": {
            "variants": list(variants),
            "omega_mat": omega_mat,
            "coupling": {"scaling": "fixed", "value": coupling_value},
            **({"coupling_overrides": overrides} if overrides else {}),
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
    "figS2": partial(_sweep_doc, 0.3, _SPC_MOC, omega_mat=0.1, geometric=("SpC",)),
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
