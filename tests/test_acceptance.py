"""Pinned end-to-end checks of the toolkit's headline numbers.

The sibling test files cover module behavior in detail; each test here pins
one quantitative, user-facing claim of the package as a whole: closed-form
splittings, agreement between the quantum oracle and the classical models,
unit bookkeeping against reference couplings, field-weight fractions in the
box cavity, driven-spectrum model gaps, collective-mode reduction, the sign
structure of the bulk response, and byte-level determinism of every shipped
reproduction target.  Tolerances are deliberately explicit and tight; any
drift in the physics shows up here first.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import coupling_from_mode_volume, plasmon_oscillator_strength

from polariton_lab.driven import (
    DriveSpec,
    driven_response,
    polarizability_oracle,
    scattering_cross_section,
)
from polariton_lab.ensemble import (
    FabryPerotSpec,
    cubic_dipole_lattice,
    full_vs_reduced_check,
)
from polariton_lab.fields import BoxCavityScene, contribution_fractions
from polariton_lab.hopfield import (
    HopfieldParams,
    _ladder_deviation,
    frame_equivalence_check,
    hopfield_quartic_eigen,
    truncated_fock_spectrum,
)
from polariton_lab.material import (
    PermittivityModel,
    bulk_dispersion,
    coupling_profiles,
    permittivity,
    reststrahlen_band,
)
from polariton_lab.models import (
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    branch_frequencies,
)
from polariton_lab.scenarios import FIGURE_IDS, reproduce_figure
from polariton_lab.units import (
    UNITS,
    OscillatorStrength,
    coupling_dipole_dipole,
    dipole_moment_to_oscillator_strength,
)

# Reference dipole pair used throughout: a plasmonic-sphere-like mode and a
# strong molecular transition, both at 3 eV (strengths in e^2/m_p units).
_F_SPHERE = 4345.0**2
_F_MOLECULE = 118.74**2
_X = np.array([1.0, 0.0, 0.0])


def _resonant(variant, g, kappa=0.0, gamma=0.0, omega=1.0):
    pair = OscillatorPair(omega, omega, kappa, gamma)
    return CoupledModel(pair, variant, g)


# ---------------------------------------------------------------------------
# closed-form splittings


@pytest.mark.parametrize("g", [0.05, 0.1, 0.3, 0.5])
def test_momentum_coupling_splitting_is_exactly_twice_g(g):
    plus, minus = branch_frequencies(ModelVariant.MOC, 1.0, 1.0, g)
    split = float(plus - minus)
    assert split == pytest.approx(2.0 * g, rel=1e-12)


def test_spring_coupling_splitting_exceeds_twice_g_by_the_known_ratio():
    # at g = 0.3 the amplitude-coupled splitting is 2.11 g, not 2 g
    plus, minus = branch_frequencies(ModelVariant.SPC, 1.0, 1.0, 0.3)
    split = float(plus - minus)
    assert split == pytest.approx(2.11 * 0.3, rel=5e-3)


def test_spring_lower_branch_cutoff_sits_at_four_g_squared():
    g = 0.3
    threshold = 4.0 * g * g  # 0.36 in units of omega_mat
    omega_cav = threshold + np.array([1e-6, -1e-6])
    plus, minus = branch_frequencies(ModelVariant.SPC, omega_cav, 1.0, g)
    # a real lower branch just above the cutoff, none (NaN) just below it
    assert np.isnan(minus).tolist() == [False, True]
    assert 0.0 <= minus[0] < plus[0]


def test_momentum_upper_branch_asymptote_at_vanishing_cavity_frequency():
    g = 0.3
    plus, _ = branch_frequencies(ModelVariant.MOC, 1e-4, 1.0, g)
    assert float(plus) == pytest.approx(math.sqrt(1.0 + 4.0 * g * g), rel=1e-3)


# ---------------------------------------------------------------------------
# quantum oracle vs classical models


def test_quantum_oracle_agrees_with_classical_closed_forms_on_random_draws():
    # 50 stable draws across the full coupling range; the truncated-Fock
    # single-excitation gaps must land on the quartic roots, and the quartic
    # must collapse onto the matching classical model when the quadratic
    # cavity term is absent (spring form) or matched (momentum form).
    rng = np.random.default_rng(20260822)
    classes = itertools.cycle(("zero", "matched", "random"))
    draws = []
    attempts = 0
    while len(draws) < 50:
        attempts += 1
        assert attempts < 500, "stable-parameter sampling should not struggle"
        ratio = float(rng.uniform(0.3, 3.0))
        g = float(rng.uniform(0.0, 0.5))
        cls = next(classes)
        d_term = {"zero": 0.0, "matched": g * g, "random": float(rng.uniform(0.0, 0.5))}[cls]
        params = HopfieldParams(omega_cav=ratio, omega_mat=1.0, g_qed=g, D=d_term)
        if params.stable:
            draws.append((cls, params))

    for cls, params in draws:
        w_plus, w_minus = hopfield_quartic_eigen(params)
        spectrum = truncated_fock_spectrum(params, n_max=40, n_levels=60)
        levels = spectrum.excitation_energies
        # the lowest excitation is the lower polariton; the upper polariton
        # sits somewhere in the ladder of combination levels
        assert abs(levels[0] - w_minus) <= 1e-5
        assert float(np.min(np.abs(levels - w_plus))) <= 1e-5
        # the ground state and the lowest ten levels sit on the exact ladder
        # E0 + n_plus w_plus + n_minus w_minus; higher up, n_max = 40 truncates
        lowest = dataclasses.replace(spectrum, excitation_energies=levels[:10])
        assert _ladder_deviation(lowest, w_plus, w_minus) <= 1e-9

        if cls == "zero":
            plus, minus = branch_frequencies(ModelVariant.SPC, params.omega_cav, 1.0, params.g_qed)
        elif cls == "matched":
            g_mc = params.g_qed * math.sqrt(params.omega_cav)
            plus, minus = branch_frequencies(ModelVariant.MOC, params.omega_cav, 1.0, g_mc)
        else:
            continue
        assert w_plus == pytest.approx(float(plus), rel=1e-12)
        assert w_minus == pytest.approx(float(minus), rel=1e-12)


def test_coupling_frame_choice_leaves_the_spectrum_unchanged():
    # the Coulomb-gauge form and its dipole-gauge partner, with the quadratic
    # term moved onto the matter mode: isospectral to well below an neV at
    # eV-scale frequencies.  On resonance the partner is the same matrix; the
    # detuned MoC case (D = g^2 / omega_mat) is a different truncated matrix.
    for omega_cav, d_term in ((3.0, 0.0), (3.0, 0.27), (3.6, 0.27)):
        params = HopfieldParams(omega_cav=omega_cav, omega_mat=3.0, g_qed=0.9, D=d_term)
        spectrum = truncated_fock_spectrum(params, n_max=40, n_levels=5)
        assert frame_equivalence_check(params, spectrum) <= 1e-9


# ---------------------------------------------------------------------------
# unit bookkeeping


def test_reference_couplings_follow_from_unit_bookkeeping():
    # a 15 D transition in a 4.483e6 nm^3 mode at 3 eV couples at 2.5e-4 of
    # the resonance
    f_mat = dipole_moment_to_oscillator_strength(15.0, 3.0)
    g = coupling_from_mode_volume(f_mat, 4.483e6, 1.0, 1.0)
    assert g == pytest.approx(2.5e-4 * 3.0, rel=0.05)
    # the dipolar mode of a 5 nm sphere resonant at 3 eV
    f_cav = plasmon_oscillator_strength(5.0, 3.0)
    assert f_cav.value == pytest.approx(_F_SPHERE, rel=5e-3)


# ---------------------------------------------------------------------------
# field weights in the box cavity


def _box_scene(omega_mat):
    return BoxCavityScene(
        L=(300.0, 300.0, 200.0),
        V_eff=4.483e6,
        omega_cav=3.0,
        r_mat=(0.0, 0.0, 0.0),
        n_d=(0.0, 0.0, 1.0),
        f_mat=_F_MOLECULE,
        omega_mat=omega_mat,
    )


def test_cavity_and_matter_weights_at_the_reference_point():
    position = (10.5, 0.0, 0.0)
    # on resonance at weak coupling both constituents carry half the weight
    for branch in (+1, -1):
        s_cav, s_mat = contribution_fractions(_box_scene(3.0), 7.5e-4, branch, position)
        assert s_cav == pytest.approx(0.5, abs=0.05)
        assert s_mat == pytest.approx(0.5, abs=0.05)
    # deep in the strong-coupling regime the upper mode leans cavity-side
    s_cav, _ = contribution_fractions(_box_scene(3.0), 0.6, +1, position)
    assert s_cav == pytest.approx(0.6, abs=0.05)
    # pushing the matter frequency toward zero leaves a mostly-cavity upper mode
    s_cav, _ = contribution_fractions(_box_scene(0.01), 0.6, +1, position)
    assert s_cav == pytest.approx(0.9, abs=0.05)


# ---------------------------------------------------------------------------
# driven spectra


def _scattering_spectrum(variant, g, grid):
    model = _resonant(variant, g, kappa=0.02, gamma=0.01, omega=3.0)
    resp = driven_response(model, DriveSpec(E_inc=1.0, omega=grid, f_cav=_F_SPHERE, f_mat=_F_MOLECULE))
    return scattering_cross_section(resp, _X, _X, 1.0, grid)


def _peak_indices(y):
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def test_models_nearly_agree_when_driven_weakly():
    # at g = 1e-2 omega_cav the two coupling forms predict almost the same
    # scattering spectrum: under 10% apart at both hybrid-mode peaks
    grid = np.linspace(2.85, 3.15, 4001)
    sigma_spc = _scattering_spectrum(ModelVariant.SPC, 0.03, grid)
    sigma_mc = _scattering_spectrum(ModelVariant.MOC, 0.03, grid)
    peaks_spc = _peak_indices(sigma_spc)
    peaks_mc = _peak_indices(sigma_mc)
    assert len(peaks_spc) == len(peaks_mc) == 2
    for i_spc, i_mc in zip(peaks_spc, peaks_mc):
        rel_gap = abs(sigma_mc[i_mc] - sigma_spc[i_spc]) / sigma_spc[i_spc]
        assert rel_gap < 0.10


def test_momentum_model_dominates_the_upper_peak_when_driven_strongly():
    # at g = 0.3 omega_cav the momentum form piles roughly twice the spring
    # form's scattering onto the upper hybrid mode
    grid = np.linspace(1.6, 4.6, 6001)
    sigma_spc = _scattering_spectrum(ModelVariant.SPC, 0.9, grid)
    sigma_mc = _scattering_spectrum(ModelVariant.MOC, 0.9, grid)
    upper_spc = sigma_spc[_peak_indices(sigma_spc)[-1]]
    upper_mc = sigma_mc[_peak_indices(sigma_mc)[-1]]
    assert 1.7 <= upper_mc / upper_spc <= 2.3


def test_driven_amplitudes_match_the_polarizability_oracle():
    # dipole-pair scene: sphere mode at the origin, molecule 6 nm away on
    # the x axis, head-to-tail orientation, modest damping on both
    r_cav, r_mat = np.zeros(3), np.array([6.0, 0.0, 0.0])
    f_cav, f_mat = OscillatorStrength(_F_SPHERE), OscillatorStrength(_F_MOLECULE)
    g = coupling_dipole_dipole(f_cav, f_mat, r_cav, r_mat, _X, _X, 3.0, 3.0)
    model = CoupledModel(OscillatorPair(3.0, 3.0, 0.02, 0.01), ModelVariant.SPC, g)
    f_cav_red, f_mat_red = f_cav.reduced(), f_mat.reduced()
    omega = np.linspace(2.4, 3.6, 200)
    resp = driven_response(model, DriveSpec(E_inc=1.0, omega=omega, f_cav=f_cav_red, f_mat=f_mat_red))
    oracle = polarizability_oracle(
        f_cav_red, f_mat_red, 3.0, 3.0, 0.02, 0.01,
        r_cav, r_mat, _X, _X, 1.0, omega,
    )
    for attr in ("x_cav", "x_mat", "d_cav", "d_mat"):
        got, want = getattr(resp, attr), getattr(oracle, attr)
        assert got.shape == want.shape == omega.shape
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


# ---------------------------------------------------------------------------
# collective reduction


_MODE = (1, (0.0, 0.0))


def test_chain_reduction_is_exact_without_dipole_dipole():
    fp = FabryPerotSpec(L_cav=206.64, lateral_period=10.0, modes=(_MODE,))
    lattice = cubic_dipole_lattice(fp, 10.0, (1, 1, 20), _F_MOLECULE, 3.0)
    report = full_vs_reduced_check(fp=fp, lattice=lattice, mode=_MODE, include_dipole_dipole=False)
    assert report.max_rel_deviation < 1e-13
    assert report.passed


def test_collective_splitting_grows_as_sqrt_of_the_effective_count():
    fp = FabryPerotSpec(L_cav=206.64, lateral_period=30.0, modes=(_MODE,))
    baseline = None
    for shape in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
        lattice = cubic_dipole_lattice(fp, 3.0, shape, _F_MOLECULE, 3.0)
        report = full_vs_reduced_check(
            fp=fp, lattice=lattice, mode=_MODE, include_dipole_dipole=False
        )
        split = abs(report.omega_full[0] - report.omega_full[1])
        n_eff = report.collective.N_eff
        if baseline is None:
            baseline = (split, n_eff)
        else:
            expected = baseline[0] * math.sqrt(n_eff / baseline[1])
            assert split == pytest.approx(expected, rel=0.01)


def test_uniform_filling_activates_half_the_dipoles():
    fp = FabryPerotSpec(L_cav=206.64, lateral_period=30.0, modes=(_MODE,))
    lattice = cubic_dipole_lattice(fp, 3.0, (4, 4, 4), _F_MOLECULE, 3.0)
    report = full_vs_reduced_check(fp=fp, lattice=lattice, mode=_MODE, include_dipole_dipole=False)
    assert report.collective.N_eff / lattice.n_dip == pytest.approx(0.5, abs=0.02)


# ---------------------------------------------------------------------------
# bulk response


def test_negative_permittivity_band_is_exactly_the_reststrahlen_window():
    model_mc = PermittivityModel(Omega_mat=1.0, G=0.3)
    model_spc = PermittivityModel(Omega_mat=1.0, G=0.3, variant=ModelVariant.SPC)
    lo, hi = reststrahlen_band(model_mc)
    assert lo == pytest.approx(1.0, rel=1e-14)
    assert hi == pytest.approx(math.sqrt(1.36), rel=1e-14)

    grid = np.linspace(1e-3, 3.0, 10_000)
    eps_mc = np.array([permittivity(model_mc, w) for w in grid])
    inside = (grid > lo) & (grid < hi)
    # negative exactly on the band, nonnegative everywhere else
    assert np.array_equal(eps_mc < 0.0, inside)
    assert inside.sum() > 100  # the grid genuinely samples the band

    eps_spc = np.array([permittivity(model_spc, w) for w in grid])
    assert np.all(eps_spc >= 0.0)

    # static limits: the momentum form stays finite, the spring form blows up
    eps_static = permittivity(model_mc, 0.0)
    assert math.isfinite(eps_static)
    assert eps_static == pytest.approx(1.36, rel=1e-12)
    assert permittivity(model_spc, 1e-5) > 1e8


def test_bulk_dispersion_parameterizations_are_equivalent():
    omega_to, g = 1.0, 0.3
    k_grid = np.linspace(0.0, 10.0, 400) * omega_to / UNITS.hbar_c
    lower_ref, upper_ref, _ = bulk_dispersion(ModelVariant.MOC, omega_to, g, k_grid)
    for alternative in (ModelVariant.ALT_COULOMB_DRESSED_CAVITY, ModelVariant.ALT_DIPOLE_DRESSED_MATTER):
        lower, upper, _ = bulk_dispersion(alternative, omega_to, g, k_grid)
        assert lower[0] == pytest.approx(lower_ref[0], abs=1e-10)
        assert np.max(np.abs(lower[1:] - lower_ref[1:]) / lower_ref[1:]) <= 1e-10
        assert np.max(np.abs(upper - upper_ref) / upper_ref) <= 1e-10
    # the dressings move the k dependence into the coupling differently:
    # the velocity form is k-independent, the dressed-resonance form starts at 0
    profile_mc = coupling_profiles(ModelVariant.MOC, omega_to, g, k_grid)
    profile_a2 = coupling_profiles(ModelVariant.ALT_DIPOLE_DRESSED_MATTER, omega_to, g, k_grid)
    assert np.ptp(profile_mc) == 0.0
    assert profile_mc[0] == pytest.approx(g, rel=1e-14)
    assert profile_a2[0] == 0.0


# ---------------------------------------------------------------------------
# linearized model validity


def test_linearized_model_validity_window():
    # deviations measured in units of omega_mat over cavity tunings 0.2..2
    ratios = np.linspace(0.2, 2.0, 181)

    def worst_deviation(g):
        lin_plus, lin_minus = branch_frequencies(ModelVariant.LINEARIZED, ratios, 1.0, g)
        worst = {}
        for variant in (ModelVariant.MOC, ModelVariant.SPC):
            plus, minus = branch_frequencies(variant, ratios, 1.0, g)
            real = ~np.isnan(minus)  # tunings below the SpC cutoff have no lower branch
            worst[variant] = max(
                float(np.max(np.abs(lin_plus - plus)[real])),
                float(np.max(np.abs(lin_minus - minus)[real])),
            )
        return worst

    moderate = worst_deviation(0.1)
    assert moderate[ModelVariant.MOC] <= 0.02
    assert moderate[ModelVariant.SPC] <= 0.02

    strong = worst_deviation(0.3)
    assert strong[ModelVariant.MOC] > 0.05
    assert strong[ModelVariant.SPC] > 0.05


# ---------------------------------------------------------------------------
# determinism of the shipped reproduction targets


@pytest.mark.parametrize("figure_id", sorted(FIGURE_IDS))
def test_reproduction_targets_are_byte_identical_across_runs(figure_id, tmp_path):
    first = reproduce_figure(figure_id, out_dir=tmp_path / "first")
    second = reproduce_figure(figure_id, out_dir=tmp_path / "second")
    data_first = first.csv_path.read_bytes()
    data_second = second.csv_path.read_bytes()
    assert data_first
    assert data_first == data_second
