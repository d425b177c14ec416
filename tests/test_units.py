"""Unit-system conversions and coupling-strength helpers."""

import math

import numpy as np
import pytest
from conftest import coupling_from_mode_volume, oscillator_strength_to_dipole_moment, plasmon_oscillator_strength
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab import (
    BoxCavityScene,
    DriveSpec,
    HopfieldParams,
    PolaritonError,
    collective_reduce,
    contribution_fractions,
    cubic_dipole_lattice,
    dielectric_field_arrays,
    driven_response,
    full_vs_reduced_check,
    polarizability_oracle,
    scattering_cross_section,
    truncated_fock_spectrum,
)
from polariton_lab.ensemble import FabryPerotSpec
from polariton_lab.models import CoupledModel, ModelVariant, OscillatorPair
from polariton_lab.units import (
    UNITS,
    OscillatorStrength,
    angular_factor,
    coupling_dipole_dipole,
    dipole_moment_to_oscillator_strength,
)

# log-uniform grids spanning molecular to plasmonic scales
_moments = st.floats(min_value=-3.0, max_value=2.0).map(lambda x: 10.0**x)
_energies = st.floats(min_value=-2.0, max_value=1.0).map(lambda x: 10.0**x)


def test_default_constants():
    assert UNITS.hbar_c == pytest.approx(197.3269804, rel=1e-12)
    assert UNITS.coulomb_const == pytest.approx(1.43996448, rel=1e-12)
    assert UNITS.proton_mass_energy == pytest.approx(9.38272088e8, rel=1e-12)
    assert UNITS.debye_in_e_nm == pytest.approx(0.020819434, rel=1e-12)
    assert UNITS.light_speed == 1.0


@given(mu=_moments, omega=_energies)
@settings(max_examples=200, deadline=None)
def test_dipole_moment_round_trip(mu, omega):
    f = dipole_moment_to_oscillator_strength(mu, omega)
    back = oscillator_strength_to_dipole_moment(f, omega)
    assert back == pytest.approx(mu, rel=1e-12)


def test_fifteen_debye_at_3ev():
    # worked value for a strong molecular transition: sqrt(f) ~ 118.74
    f = dipole_moment_to_oscillator_strength(15.0, 3.0)
    assert math.sqrt(f.value) == pytest.approx(118.74, rel=1e-3)


def test_oscillator_strength_quadratic_in_moment():
    f1 = dipole_moment_to_oscillator_strength(15.0, 3.0)
    f2 = dipole_moment_to_oscillator_strength(30.0, 3.0)
    assert f2.value == pytest.approx(4.0 * f1.value, rel=1e-12)


def test_oscillator_strength_validation():
    with pytest.raises(PolaritonError):
        OscillatorStrength(-1.0)
    with pytest.raises(PolaritonError):
        OscillatorStrength(float("nan"))
    assert float(OscillatorStrength(2.0)) == 2.0


def test_reduced_strength_scale():
    # 1 unit of f -> K_e * (hbar c)^2 / M_p in nm^3 eV^2
    f = OscillatorStrength(1.0)
    expected = 1.43996448 * 197.3269804**2 / 9.38272088e8
    assert f.reduced() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(5.97582e-5, rel=1e-4)


def test_mode_volume_coupling_pin():
    # 15 D dipole at 3 eV in a 4.483e6 nm^3 mode, antinode, aligned
    f = dipole_moment_to_oscillator_strength(15.0, 3.0)
    g = coupling_from_mode_volume(f, 4.483e6, 1.0, 1.0)
    assert g == pytest.approx(2.5e-4 * 3.0, rel=0.05)


def test_mode_volume_coupling_square_root_scaling():
    f = dipole_moment_to_oscillator_strength(15.0, 3.0)
    g1 = coupling_from_mode_volume(f, 1.0e6, 1.0, 1.0)
    g4 = coupling_from_mode_volume(f, 4.0e6, 1.0, 1.0)
    assert g1 == pytest.approx(2.0 * g4, rel=1e-12)


def test_plasmon_strength_pin():
    # dipolar mode of a 5 nm sphere at 3 eV
    f = plasmon_oscillator_strength(5.0, 3.0)
    assert math.sqrt(f.value) == pytest.approx(4338.9, rel=5e-3)


def test_plasmon_strength_volume_scaling():
    f1 = plasmon_oscillator_strength(2.0, 3.0)
    f8 = plasmon_oscillator_strength(4.0, 3.0)
    assert f8.value == pytest.approx(8.0 * f1.value, rel=1e-12)


# ---------------------------------------------------------------------------
# dipole-dipole coupling


def _hand_rolled_coupling(f_cav, f_mat, r, n_c, n_m, w_c, w_m):
    """Reference implementation written out long-hand.

    g = K_e sqrt(f_c f_m) / (2 sqrt(w_c w_m) M_p r^3) * hbar_c^2
        * [n_c.n_m - 3 (n_c.axis)(n_m.axis)]
    with all strengths in e^2/m_p units and distances in nm.  Head-to-tail
    dipoles (both along the separation axis) then come out attractive, g < 0.
    """
    axis = np.asarray(r, float) / np.linalg.norm(r)
    geom = np.dot(n_c, n_m) - 3.0 * np.dot(n_c, axis) * np.dot(n_m, axis)
    pref = (
        UNITS.coulomb_const
        * UNITS.hbar_c**2
        * math.sqrt(f_cav * f_mat)
        / UNITS.proton_mass_energy
    )
    return pref * geom / (2.0 * math.sqrt(w_c * w_m) * np.linalg.norm(r) ** 3)


def test_dipole_dipole_against_hand_rolled():
    f_cav = OscillatorStrength(4345.0**2)
    f_mat = OscillatorStrength(118.74**2)
    r_cav = np.zeros(3)
    r_mat = np.array([6.0, 0.0, 0.0])
    x = np.array([1.0, 0.0, 0.0])
    g = coupling_dipole_dipole(f_cav, f_mat, r_cav, r_mat, x, x, 3.0, 3.0)
    ref = _hand_rolled_coupling(f_cav.value, f_mat.value, r_mat, x, x, 3.0, 3.0)
    assert g == pytest.approx(ref, rel=1e-12)
    # axial configuration: attractive head-to-tail arrangement, tens of meV
    assert g == pytest.approx(-0.0476, abs=5e-4)


def test_dipole_dipole_swap_symmetry():
    f_a = OscillatorStrength(1.0e6)
    f_b = OscillatorStrength(2.0e4)
    r_a = np.array([1.0, 2.0, 0.5])
    r_b = np.array([4.0, -1.0, 2.0])
    n_a = np.array([0.0, 0.0, 1.0])
    n_b = np.array([0.0, 1.0, 0.0])
    g_ab = coupling_dipole_dipole(f_a, f_b, r_a, r_b, n_a, n_b, 2.0, 1.5)
    g_ba = coupling_dipole_dipole(f_b, f_a, r_b, r_a, n_b, n_a, 1.5, 2.0)
    assert g_ab == pytest.approx(g_ba, rel=1e-13)


def test_dipole_dipole_magic_orientation_vanishes():
    # both dipoles along z, separation in the x-y plane at the angle where
    # 1 - 3cos^2(theta) = 0 never occurs; use perpendicular-to-axis dipoles
    # crossed with an in-plane partner instead: n_c.n_m = 0 and one of them
    # perpendicular to the axis kills both terms
    f = OscillatorStrength(1.0e4)
    r_cav = np.zeros(3)
    r_mat = np.array([5.0, 0.0, 0.0])
    n_c = np.array([0.0, 1.0, 0.0])
    n_m = np.array([0.0, 0.0, 1.0])
    g = coupling_dipole_dipole(f, f, r_cav, r_mat, n_c, n_m, 3.0, 3.0)
    assert g == 0.0


def test_dipole_dipole_inverse_cube():
    f = OscillatorStrength(1.0e4)
    x = np.array([1.0, 0.0, 0.0])
    g1 = coupling_dipole_dipole(f, f, np.zeros(3), np.array([3.0, 0, 0]), x, x, 3.0, 3.0)
    g2 = coupling_dipole_dipole(f, f, np.zeros(3), np.array([6.0, 0, 0]), x, x, 3.0, 3.0)
    assert g1 == pytest.approx(8.0 * g2, rel=1e-12)


def test_dipole_dipole_perpendicular_sign():
    # side-by-side parallel dipoles repel: positive g
    f = OscillatorStrength(1.0e4)
    z = np.array([0.0, 0.0, 1.0])
    g = coupling_dipole_dipole(f, f, np.zeros(3), np.array([5.0, 0, 0]), z, z, 3.0, 3.0)
    assert g > 0.0


@given(
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    psi=st.floats(min_value=0.0, max_value=math.pi),
)
@settings(max_examples=200, deadline=None)
def test_angular_factor_bounded(theta, phi, psi):
    n_a = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    n_b = np.array([math.sin(psi), 0.0, math.cos(psi)])
    axis = np.array([0.0, 0.0, 1.0])
    val = angular_factor(n_a, n_b, axis)
    assert abs(val) <= 2.0 + 1e-12


def test_angular_factor_reference_points():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert angular_factor(z, z, z) == pytest.approx(-2.0, rel=1e-14)
    assert angular_factor(x, x, z) == pytest.approx(1.0, rel=1e-14)
    assert angular_factor(x, z, z) == pytest.approx(0.0, abs=1e-14)


def test_dipole_dipole_validation():
    f = OscillatorStrength(1.0e4)
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(PolaritonError):
        coupling_dipole_dipole(f, f, np.zeros(3), np.zeros(3), x, x, 3.0, 3.0)
    with pytest.raises(PolaritonError):
        coupling_dipole_dipole(
            f, f, np.zeros(3), np.array([5.0, 0, 0]), 2.0 * x, x, 3.0, 3.0
        )
    with pytest.raises(PolaritonError):
        coupling_dipole_dipole(
            f, f, np.zeros(3), np.array([5.0, 0, 0]), x, x, -3.0, 3.0
        )


# ---------------------------------------------------------------------------
# input guards: every entry point rejects a non-finite, out-of-range or
# fractional argument

_X = np.array([1.0, 0.0, 0.0])
_ORACLE = dict(
    f_cav=1.0e3, f_mat=1.0e2, omega_cav=3.0, omega_mat=3.0, kappa=0.1, gamma=0.05,
    r_cav=np.zeros(3), r_mat=np.array([20.0, 0.0, 0.0]), n_dcav=_X, n_dmat=_X,
    E_inc=1.0, omega=np.linspace(2.5, 3.5, 5),
)
_PAIR = dict(
    r_cav=np.zeros(3), r_mat=np.array([10.0, 0.0, 0.0]), n_dcav=_X, n_dmat=_X,
    omega_cav=2.5, omega_mat=2.0,
)


def _oracle(**changes):
    return polarizability_oracle(**{**_ORACLE, **changes})


def _box():
    z = np.array([0.0, 0.0, 1.0])
    return BoxCavityScene(
        L=(20.0, 20.0, 20.0), V_eff=1.0e6, omega_cav=3.0, r_mat=np.zeros(3), n_d=z,
        f_mat=118.74**2, omega_mat=3.0,
    )


_ON_AXIS = (5.0, 0.0, 0.0)


def _field_map(core_radius):
    return dielectric_field_arrays(_box(), 0.3, +1, [_ON_AXIS], core_radius=core_radius)


def _cross_section(omega):
    model = CoupledModel(OscillatorPair(3.0, 3.0, kappa=0.1, gamma=0.05), ModelVariant.SPC, 0.1)
    resp = driven_response(model, DriveSpec(E_inc=1.0, omega=np.array([2.9, 3.0, 3.1]), f_cav=1e3, f_mat=1e2))
    return scattering_cross_section(resp, _X, _X, 1.0, omega)


_MODE = (1, (0.0, 0.0))
_FP = FabryPerotSpec(L_cav=206.64, lateral_period=10.0, modes=(_MODE,))


def _ensemble_check(tolerance):
    lattice = cubic_dipole_lattice(_FP, 3.0, (2, 2, 1), 14099.1876, 3.0)
    return full_vs_reduced_check(lattice, _FP, _MODE, tolerance=tolerance)


def _collective(mode=_MODE):
    lattice = cubic_dipole_lattice(_FP, 3.0, (2, 2, 1), 14099.1876, 3.0)
    return collective_reduce(lattice, _FP, mode)


def _fock(n_max, n_levels):
    return truncated_fock_spectrum(HopfieldParams(1.0, 1.0, 0.1), n_max, n_levels).ground_state_energy


def _same_coupling(function, strengths, *rest, **kwargs):
    """A plain-number strength gives the coupling of the equal OscillatorStrength."""
    plain = function(*strengths, *rest, **kwargs)
    assert plain == function(*map(OscillatorStrength, strengths), *rest, **kwargs)
    return plain


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: _oracle(r_cav=np.array([0.0, math.nan, 0.0])), "r_cav"),
        (lambda: _oracle(kappa=math.nan), "kappa"),
        (lambda: _oracle(E_inc=math.nan), "E_inc"),
        (lambda: _oracle(omega_cav=math.inf), "omega_cav"),
        (lambda: _oracle(omega=np.array([2.5, 3.0, math.nan])), r"omega .*\(grid row 2\)"),
        (lambda: coupling_dipole_dipole(1e3, 1e3, **{**_PAIR, "r_mat": (math.inf, 0.0, 0.0)}), "r_mat"),
        (lambda: coupling_dipole_dipole(1e3, 1e3, **{**_PAIR, "r_cav": (0.0, math.nan, 0.0)}), "r_cav"),
        (lambda: _cross_section(np.array([2.9, math.nan, 3.1])), r"omega .*\(grid row 1\)"),
        (lambda: _field_map(core_radius=math.nan), "core_radius"),
        (lambda: _field_map(core_radius=-1.0), "core_radius"),
        (lambda: contribution_fractions(_box(), math.inf, +1, _ON_AXIS), "MoC coupling"),
        (lambda: contribution_fractions(_box(), math.nan, +1, _ON_AXIS), "MoC coupling"),
        (lambda: _ensemble_check(math.nan), "tolerance"),
        (lambda: _FP.mode_profile(_MODE, (math.nan, 0.0, 10.0)), "r must be finite"),
        (lambda: FabryPerotSpec(206.64, 10.0, ((1.7, (0.0, 0.0)),)), "mode index n must be an integer"),
        (lambda: FabryPerotSpec(206.64, 10.0, ((math.nan, (0.0, 0.0)),)), "mode index n must be an integer"),
        (lambda: cubic_dipole_lattice(_FP, 3.0, (2.9, 1, 1), 14099.1876, 3.0), "lattice shape must be an integer"),
        (lambda: cubic_dipole_lattice(_FP, math.nan, (2, 1, 1), 14099.1876, 3.0), "spacing"),
        (lambda: _collective(mode=(1.2, (0.0, 0.0))), "mode index n must be an integer"),
        (lambda: _fock(2.5, 2), "n_max must be an integer"),
        (lambda: _fock(4, True), "n_levels must be an integer"),
        (lambda: _fock(4.0, 2.0), None),
        (lambda: _same_coupling(coupling_dipole_dipole, (2e3, 5e2), **_PAIR), None),
    ],
    ids=[
        "oracle-nan-position",
        "oracle-nan-kappa",
        "oracle-nan-E_inc",
        "oracle-inf-omega_cav",
        "oracle-nan-drive-frequency",
        "dipole-dipole-inf-position",
        "dipole-dipole-nan-position",
        "cross-section-nan-frequency",
        "field-map-nan-core_radius",
        "field-map-negative-core_radius",
        "fractions-inf-coupling",
        "fractions-nan-coupling",
        "ensemble-nan-tolerance",
        "mode-profile-nan-position",
        "cavity-fractional-mode-index",
        "cavity-nan-mode-index",
        "lattice-fractional-shape",
        "lattice-nan-spacing",
        "collective-fractional-mode-index",
        "fock-fractional-n_max",
        "fock-boolean-n_levels",
        "fock-whole-float-truncation",
        "dipole-dipole-plain-strengths",
    ],
)
def test_entry_points_check_their_inputs(call, name):
    # ``name`` is what the error must name; None marks an input that is accepted
    if name is None:
        assert math.isfinite(call())
        return
    with pytest.raises(PolaritonError, match=name):
        call()
