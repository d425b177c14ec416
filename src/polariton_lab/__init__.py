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

The version and the exception types are defined here; importing the package
loads nothing else.  The modules are loaded on first use: a submodule attribute
such as ``polariton_lab.figures`` loads that module alone, and any other public
name, or ``__all__``, loads all eight layers and binds their public names here.
"""

import importlib.util

__version__ = "0.1.0"


class PolaritonError(ValueError):
    """Domain error in a physics operation (bad parameters, unstable system...)."""


class PoleError(PolaritonError):
    """A driven system was evaluated exactly at a lossless resonance."""


class SchemaError(ValueError):
    """A scenario document does not conform to the documented schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


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
    # ``from polariton_lab import figures`` asks for the attribute before it
    # imports the submodule, so a submodule name loads that module alone
    if importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f".{name}", __name__)
    if "__all__" not in globals():
        _export_layers()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
