"""Bulk permittivity, reststrahlen band, and polariton dispersion."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from polariton_lab import PoleError, PolaritonError
from polariton_lab.material import (
    PermittivityModel,
    bulk_dispersion,
    coupling_profiles,
    permittivity,
    reststrahlen_band,
    reststrahlen_fit,
)
from polariton_lab.models import ModelVariant, dressed_parameters
from polariton_lab.units import UNITS

_SIC_TO = 0.0983  # eV
_SIC_LO = 0.1205  # eV
_MOC = ModelVariant.MOC
_A1 = ModelVariant.ALT_COULOMB_DRESSED_CAVITY
_A2 = ModelVariant.ALT_DIPOLE_DRESSED_MATTER


def _mc(omega=1.0, g=0.3, eps_inf=1.0):
    return PermittivityModel(Omega_mat=omega, G=g, epsilon_inf=eps_inf)


def _spc(omega=1.0, g=0.3):
    return PermittivityModel(Omega_mat=omega, G=g, variant=ModelVariant.SPC)


# ---------------------------------------------------------------------------
# velocity-form (Lorentz) permittivity


def test_lorentz_permittivity_hand_values():
    model = _mc()
    assert permittivity(model, 0.0) == pytest.approx(1.0 + 0.36, rel=1e-14)
    assert permittivity(model, 1.1) == pytest.approx(
        1.0 + 0.36 / (1.0 - 1.21), rel=1e-13
    )
    assert permittivity(model, 100.0) == pytest.approx(1.0, rel=1e-3)


def test_lorentz_permittivity_sign_structure():
    model = _mc()
    lo, hi = reststrahlen_band(model)
    assert (lo, hi) == (1.0, pytest.approx(math.sqrt(1.36), rel=1e-14))
    inside = np.linspace(lo * 1.001, hi * 0.999, 500)
    assert np.all(permittivity(model, inside) < 0.0)
    below = np.linspace(0.0, lo * 0.999, 500)
    assert np.all(permittivity(model, below) > 0.0)
    above = np.linspace(hi * 1.001, 10.0, 500)
    assert np.all(permittivity(model, above) > 0.0)
    # the band closes exactly at the longitudinal edge
    assert permittivity(model, hi) == pytest.approx(0.0, abs=1e-12)


def test_lorentz_permittivity_pole_and_variant_guards():
    with pytest.raises(PoleError):
        permittivity(_mc(), 1.0)
    # a medium is MoC or SpC: the linearized and dressed variants have no
    # permittivity here
    for variant in (
        ModelVariant.LINEARIZED,
        ModelVariant.ALT_COULOMB_DRESSED_CAVITY,
        ModelVariant.ALT_DIPOLE_DRESSED_MATTER,
        ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY,
    ):
        with pytest.raises(PolaritonError, match="ModelVariant.MOC or ModelVariant.SPC"):
            PermittivityModel(Omega_mat=1.0, G=0.3, variant=variant)
    with pytest.raises(PolaritonError):
        permittivity(_mc(), -0.5)


# ---------------------------------------------------------------------------
# amplitude-form permittivity


def test_amplitude_permittivity_is_nonnegative_everywhere():
    model = _spc()
    grid = np.concatenate(
        [np.linspace(0.01, 0.999, 300), np.linspace(1.001, 12.0, 300)]
    )
    eps = permittivity(model, grid)
    assert np.all(eps >= 0.0)
    # approaches vacuum from above at high frequency
    assert permittivity(model, 50.0) == pytest.approx(1.0, abs=1e-3)


def test_amplitude_permittivity_diverges_at_zero():
    model = _spc()
    with pytest.raises(PoleError, match="omega = 0"):
        permittivity(model, 0.0)
    assert permittivity(model, 1e-5) > 1e8


def test_amplitude_permittivity_guards():
    with pytest.raises(PoleError):
        permittivity(_spc(), 1.0)
    with pytest.raises(PolaritonError):
        permittivity(_spc(), -0.5)


def test_permittivity_dispatches_on_the_variant():
    # the same medium parameters give the two coupling forms' permittivities
    assert permittivity(_mc(), 2.0) == pytest.approx(1.0 + 0.36 / (1.0 - 4.0), rel=1e-14)
    t = 2.0 * 0.09 * 1.0 / (2.0 * (1.0 - 4.0))
    assert permittivity(_spc(), 2.0) == pytest.approx((t + math.sqrt(1.0 + t * t)) ** 2, rel=1e-14)


def _amplitude_permittivity_decimal(omega_mat: float, g: float, w: float) -> Decimal:
    """(t + sqrt(1 + t^2))^2 of the same float inputs, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        big_omega, w = Decimal(omega_mat), Decimal(w)
        t = 2 * Decimal(g) ** 2 * big_omega / (w * (big_omega**2 - w**2))
        return (t + (1 + t * t).sqrt()) ** 2


@pytest.mark.parametrize("offset", [1e-3, 1e-5, 1e-7, 1e-9])
def test_amplitude_permittivity_above_its_pole_is_accurate(offset):
    # just above Omega_mat, t is large and negative and t + sqrt(1 + t^2)
    # would cancel; what is left is the rounding of Omega^2 - omega^2, whose
    # condition number is about 2 Omega / |omega - Omega|
    omega_mat, g = 1.0, 0.2
    w = omega_mat + offset
    got = permittivity(_spc(omega_mat, g), w)
    want = _amplitude_permittivity_decimal(omega_mat, g, w)
    rel = abs((Decimal(got) - want) / want)
    condition = 2.0 * omega_mat / abs(w - omega_mat)
    assert rel <= 4.0 * np.finfo(float).eps * (1.0 + condition)


def test_amplitude_permittivity_trivial_without_coupling():
    model = PermittivityModel(Omega_mat=1.0, G=0.0, variant=ModelVariant.SPC)
    grid = np.array([0.3, 0.9, 2.5])
    assert permittivity(model, grid) == pytest.approx([1.0, 1.0, 1.0], rel=1e-14)


def test_no_reststrahlen_band_for_amplitude_medium():
    with pytest.raises(PolaritonError, match="no reststrahlen band"):
        reststrahlen_band(_spc())


# ---------------------------------------------------------------------------
# fitting measured band edges


def test_band_fit_round_trip():
    model = reststrahlen_fit(_SIC_TO, _SIC_LO, epsilon_inf=6.52)
    lo, hi = reststrahlen_band(model)
    assert lo == pytest.approx(_SIC_TO, rel=1e-14)
    assert hi == pytest.approx(_SIC_LO, rel=1e-12)
    assert model.G == pytest.approx(0.5 * math.sqrt(_SIC_LO**2 - _SIC_TO**2), rel=1e-14)
    assert model.variant is ModelVariant.MOC


def test_fitted_static_permittivity_obeys_the_edge_ratio():
    # eps(0) / eps_inf = (omega_LO / omega_TO)^2 for any Lorentz medium
    model = reststrahlen_fit(_SIC_TO, _SIC_LO, epsilon_inf=6.52)
    eps0 = permittivity(model, 0.0)
    assert eps0 / 6.52 == pytest.approx((_SIC_LO / _SIC_TO) ** 2, rel=1e-12)


def test_band_fit_validation():
    with pytest.raises(PolaritonError):
        reststrahlen_fit(-0.1, 0.2)
    with pytest.raises(PolaritonError):
        reststrahlen_fit(0.2, 0.1)
    # degenerate edges are legal and give an uncoupled medium
    assert reststrahlen_fit(0.1, 0.1).G == 0.0


# ---------------------------------------------------------------------------
# bulk polariton dispersion


def _k_grid(omega_to=_SIC_TO, n=101, upto=10.0):
    return np.linspace(0.0, upto, n) * omega_to / UNITS.hbar_c


def test_dispersion_parameterizations_agree():
    g = 0.3 * _SIC_TO
    k = _k_grid()
    reference = bulk_dispersion(_MOC, _SIC_TO, g, k)
    for name in (_A1, _A2):
        branches = bulk_dispersion(name, _SIC_TO, g, k)
        assert np.max(np.abs(branches.lower - reference.lower)) < 1e-10
        assert np.max(np.abs(branches.upper - reference.upper)) < 1e-10


def test_dispersion_photon_is_the_coupled_cavity_frequency():
    g = 0.3 * _SIC_TO
    k = _k_grid()
    omega_k = UNITS.hbar_c * k
    assert np.array_equal(bulk_dispersion(_MOC, _SIC_TO, g, k).photon, omega_k)
    assert np.array_equal(bulk_dispersion(_A2, _SIC_TO, g, k).photon, omega_k)
    # A1 couples the Coulomb-dressed photon of the models layer
    dressed_cav, _, dressed_g = dressed_parameters(_A1, omega_k, _SIC_TO, g)
    assert np.array_equal(bulk_dispersion(_A1, _SIC_TO, g, k).photon, dressed_cav)
    assert np.array_equal(coupling_profiles(_A1, _SIC_TO, g, k), dressed_g)


def test_dispersion_zone_center_limits():
    g = 0.3 * _SIC_TO
    omega_lo = math.sqrt(_SIC_TO**2 + 4.0 * g**2)
    for name in (_MOC, _A1, _A2):
        lower, upper, _ = bulk_dispersion(name, _SIC_TO, g, _k_grid())
        assert lower[0] == 0.0
        assert upper[0] == pytest.approx(omega_lo, rel=1e-14)


def test_dispersion_branches_avoid_the_band():
    g = 0.3 * _SIC_TO
    omega_lo = math.sqrt(_SIC_TO**2 + 4.0 * g**2)
    lower, upper, _ = bulk_dispersion(_MOC, _SIC_TO, g, _k_grid())
    assert np.all(lower <= _SIC_TO + 1e-15)
    assert np.all(upper >= omega_lo - 1e-15)
    # both branches grow monotonically with k
    assert np.all(np.diff(lower) >= 0.0)
    assert np.all(np.diff(upper) >= 0.0)


def test_dispersion_asymptotes():
    g = 0.3 * _SIC_TO
    k = _k_grid(upto=40.0)
    lower, upper, _ = bulk_dispersion(_MOC, _SIC_TO, g, k)
    omega_k = UNITS.hbar_c * k[-1]
    # far from resonance the upper branch rides the photon line, the lower
    # saturates at the transverse edge
    assert upper[-1] == pytest.approx(omega_k, rel=5e-3)
    assert lower[-1] == pytest.approx(_SIC_TO, rel=5e-3)


def test_uncoupled_dispersion_is_photon_plus_flat_line():
    k = _k_grid()
    lower, upper, _ = bulk_dispersion(_MOC, _SIC_TO, 0.0, k)
    photon = UNITS.hbar_c * k
    expect_upper = np.maximum(photon, _SIC_TO)
    expect_lower = np.minimum(photon, _SIC_TO)
    assert np.max(np.abs(upper - expect_upper)) < 1e-12
    assert np.max(np.abs(lower - expect_lower)) < 1e-12


def test_background_dielectric_slows_the_photon_line():
    g = 0.3 * _SIC_TO
    k = _k_grid(upto=40.0)
    upper_vac = bulk_dispersion(_MOC, _SIC_TO, g, k).upper
    upper_bg = bulk_dispersion(_MOC, _SIC_TO, g, k, epsilon_inf=4.0).upper
    assert upper_bg[-1] == pytest.approx(upper_vac[-1] / 2.0, rel=1e-2)


def test_dispersion_validation():
    # only MoC and its A1 and A2 dressings have a bulk dispersion; the error names the variant
    for variant in (ModelVariant.SPC, ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY):
        with pytest.raises(PolaritonError, match=f"no dispersion for {variant}"):
            bulk_dispersion(variant, _SIC_TO, 0.01, _k_grid())
    with pytest.raises(PolaritonError):
        bulk_dispersion(_MOC, _SIC_TO, -0.01, _k_grid())
    with pytest.raises(PolaritonError):
        bulk_dispersion(_MOC, _SIC_TO, 0.01, np.array([-1.0, 0.0]))


@pytest.mark.parametrize("k_grid", [np.array([]), np.full((2, 2), 0.1)], ids=["empty", "2-D"])
@pytest.mark.parametrize("function", [bulk_dispersion, coupling_profiles])
def test_dispersion_functions_need_a_nonempty_1d_wavevector_grid(function, k_grid):
    with pytest.raises(PolaritonError, match="k_grid must be a nonempty 1-D array"):
        function(_MOC, _SIC_TO, 0.01, k_grid)


@pytest.mark.parametrize("epsilon_inf", [0.5, 0.0, -1.0])
@pytest.mark.parametrize("function", [bulk_dispersion, coupling_profiles])
def test_dispersion_functions_reject_epsilon_inf_below_one(function, epsilon_inf):
    with pytest.raises(PolaritonError, match="epsilon_inf must be >= 1"):
        function(_A2, _SIC_TO, 0.01, _k_grid(), epsilon_inf=epsilon_inf)


# ---------------------------------------------------------------------------
# k-dependent coupling profiles


def test_coupling_profiles_shapes():
    g = 0.3 * _SIC_TO
    k = _k_grid()
    moc = coupling_profiles(_MOC, _SIC_TO, g, k)
    assert np.all(moc == g)
    a2 = coupling_profiles(_A2, _SIC_TO, g, k)
    assert a2[0] == 0.0
    # grows like the square root of the photon frequency
    assert a2[40] / a2[10] == pytest.approx(2.0, rel=1e-12)
    a1 = coupling_profiles(_A1, _SIC_TO, g, k)
    assert np.all(a1 < 0.0)
    assert abs(a1[0]) == pytest.approx(g * math.sqrt(_SIC_TO / (2.0 * g)), rel=1e-12)
    with pytest.raises(PolaritonError):
        coupling_profiles("bogus", _SIC_TO, g, k)


# ---------------------------------------------------------------------------
# permittivity / dispersion consistency


def test_branches_solve_the_bulk_mode_condition():
    # on either branch, omega^2 eps(omega) = (hbar c k)^2
    g = 0.3 * _SIC_TO
    model = _mc(omega=_SIC_TO, g=g)
    k = _k_grid(n=41)[1:]  # skip k = 0
    lower, upper, _ = bulk_dispersion(_MOC, _SIC_TO, g, k)
    for branch in (lower, upper):
        target = (UNITS.hbar_c * k) ** 2
        value = branch**2 * permittivity(model, branch)
        assert np.max(np.abs(value - target) / np.maximum(target, 1e-30)) < 1e-8


def test_permittivity_model_validation():
    with pytest.raises(PolaritonError):
        PermittivityModel(Omega_mat=0.0, G=0.1)
    with pytest.raises(PolaritonError):
        PermittivityModel(Omega_mat=1.0, G=-0.1)
    with pytest.raises(PolaritonError):
        PermittivityModel(Omega_mat=1.0, G=0.1, epsilon_inf=0.2)
    with pytest.raises(PolaritonError):
        PermittivityModel(Omega_mat=1.0, G=0.1, variant="MoC")

def test_amplitude_medium_rejects_background_screening():
    with pytest.raises(PolaritonError, match="no high-frequency screening"):
        PermittivityModel(1.0, 0.3, epsilon_inf=6.52, variant=ModelVariant.SPC)
    # the MoC medium takes the same background permittivity
    assert PermittivityModel(1.0, 0.3, epsilon_inf=6.52).epsilon_inf == 6.52