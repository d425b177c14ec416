"""Classical coupled-oscillator models of ultrastrong light-matter coupling.

Two harmonic oscillators -- a cavity-like mode and a material resonance --
coupled either through their amplitudes or through their momenta give
strikingly different polariton physics once the coupling stops being a small
perturbation.  This package implements both conventions plus their dressed
equivalents, a quantum two-mode oracle to validate the classical spectra
against, driven-response and near-field observables for two canonical
single-emitter scenes, a many-dipole ensemble reducing to a single collective
mode, and the bulk permittivity/dispersion each convention implies.

The scenario layer (:mod:`polariton_lab.scenarios`) and the ``polariton-lab``
CLI expose all of it through declarative YAML documents with deterministic
CSV artifacts.

Importing the package loads only the version and the exceptions.  The layers
are loaded on first use: a submodule attribute such as
``polariton_lab.models`` loads that layer alone, and any other public name, or
``__all__``, loads all eight and binds their public names here.
"""

import importlib

from ._version import __version__
from .exceptions import PolaritonError, PoleError, SchemaError

# the layers whose public names the package re-exports, in the order listed
_LAYERS = ("units", "models", "hopfield", "driven", "fields", "ensemble", "material", "scenarios")


def _export_layers() -> None:
    """Import the layers and bind their public names, and ``__all__``, here."""
    exported = ["__version__", "PolaritonError", "PoleError", "SchemaError"]
    for layer in _LAYERS:
        module = importlib.import_module(f".{layer}", __name__)
        exported += module.__all__  # each public name is listed once, in its layer's __all__
        globals().update((attr, getattr(module, attr)) for attr in module.__all__)
    globals()["__all__"] = exported


def __getattr__(name):
    """Load a layer, or every layer's public names, on first use (PEP 562)."""
    # ``from polariton_lab import cli`` asks for the attribute before it
    # imports the submodule, so a submodule name loads that module alone
    if name in _LAYERS or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if "__all__" not in globals():
        _export_layers()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
