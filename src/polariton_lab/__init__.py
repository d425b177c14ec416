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
"""

from . import driven, ensemble, fields, hopfield, material, models, scenarios, units
from ._version import __version__
from .driven import *
from .ensemble import *
from .exceptions import PolaritonError, PoleError, SchemaError
from .fields import *
from .hopfield import *
from .material import *
from .models import *
from .scenarios import *
from .units import *

# each public name is listed once, in its layer's __all__
__all__ = ["__version__", "PolaritonError", "PoleError", "SchemaError"] + [
    name
    for layer in (units, models, hopfield, driven, fields, ensemble, material, scenarios)
    for name in layer.__all__
]
