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

from ._version import __version__
from .driven import (
    DriveSpec,
    ResponseAmplitudes,
    driven_response,
    polarizability_oracle,
    scattering_cross_section,
)
from .ensemble import (
    CollectiveMode,
    DipoleLattice,
    FabryPerotSpec,
    FullSystem,
    FullVsReducedReport,
    build_full_system,
    collective_reduce,
    cubic_dipole_lattice,
    full_vs_reduced_check,
)
from .exceptions import PolaritonError, PoleError, SchemaError
from .fields import (
    NEAR_FIELD_CALIBRATION,
    BoxCavityScene,
    FieldArrays,
    NanoparticleScene,
    contribution_fractions,
    dielectric_field_arrays,
    mode_profile_box,
    quasistatic_field_arrays,
)
from .hopfield import (
    HopfieldParams,
    QuantumSpectrum,
    frame_equivalence_check,
    hopfield_quartic_eigen,
    truncated_fock_spectrum,
)
from .material import (
    Dispersion,
    PermittivityModel,
    bulk_dispersion,
    coupling_profiles,
    permittivity,
    reststrahlen_band,
    reststrahlen_fit,
)
from .models import (
    CoupledModel,
    MinSplitting,
    ModelVariant,
    OscillatorPair,
    branch_frequencies,
    determinant_residual,
    dressed_parameters,
    frequency_domain_matrix,
    generic_eigenfrequencies,
    min_splitting,
    mode_ratio,
)
from .scenarios import (
    FIGURE_IDS,
    SCENARIO_KINDS,
    SCHEMA_VERSION,
    ScenarioRun,
    figure_document,
    load_scenario_file,
    reproduce_figure,
    run_scenario_document,
    run_scenario_file,
)
from .units import (
    UNITS,
    OscillatorStrength,
    UnitSystem,
    angular_factor,
    coupling_dipole_dipole,
    coupling_from_mode_volume,
    dipole_moment_to_oscillator_strength,
    oscillator_strength_to_dipole_moment,
    plasmon_oscillator_strength,
)

__all__ = [
    "__version__",
    # exceptions
    "PolaritonError",
    "PoleError",
    "SchemaError",
    # units
    "UnitSystem",
    "UNITS",
    "OscillatorStrength",
    "dipole_moment_to_oscillator_strength",
    "oscillator_strength_to_dipole_moment",
    "coupling_from_mode_volume",
    "angular_factor",
    "coupling_dipole_dipole",
    "plasmon_oscillator_strength",
    # models
    "ModelVariant",
    "OscillatorPair",
    "CoupledModel",
    "MinSplitting",
    "branch_frequencies",
    "mode_ratio",
    "frequency_domain_matrix",
    "determinant_residual",
    "generic_eigenfrequencies",
    "min_splitting",
    "dressed_parameters",
    # hopfield
    "HopfieldParams",
    "QuantumSpectrum",
    "hopfield_quartic_eigen",
    "truncated_fock_spectrum",
    "frame_equivalence_check",
    # driven
    "DriveSpec",
    "ResponseAmplitudes",
    "driven_response",
    "scattering_cross_section",
    "polarizability_oracle",
    # fields
    "NEAR_FIELD_CALIBRATION",
    "BoxCavityScene",
    "NanoparticleScene",
    "FieldArrays",
    "mode_profile_box",
    "dielectric_field_arrays",
    "contribution_fractions",
    "quasistatic_field_arrays",
    # ensemble
    "FabryPerotSpec",
    "DipoleLattice",
    "CollectiveMode",
    "cubic_dipole_lattice",
    "FullSystem",
    "build_full_system",
    "collective_reduce",
    "FullVsReducedReport",
    "full_vs_reduced_check",
    # material
    "PermittivityModel",
    "permittivity",
    "reststrahlen_band",
    "reststrahlen_fit",
    "Dispersion",
    "bulk_dispersion",
    "coupling_profiles",
    # scenarios
    "SCHEMA_VERSION",
    "SCENARIO_KINDS",
    "FIGURE_IDS",
    "ScenarioRun",
    "load_scenario_file",
    "run_scenario_document",
    "run_scenario_file",
    "reproduce_figure",
    "figure_document",
]
