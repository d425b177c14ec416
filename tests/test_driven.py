"""Driven steady-state response and the coupled-dipole cross-check."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab import PoleError, PolaritonError
from polariton_lab.driven import (
    DriveSpec,
    ResponseAmplitudes,
    driven_response,
    polarizability_oracle,
    scattering_cross_section,
)
from polariton_lab.models import (
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    _system,
    branch_frequencies,
)
from polariton_lab.scenarios import figure_document, load_scenario_file
from polariton_lab.units import OscillatorStrength, coupling_dipole_dipole

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_X = np.array([1.0, 0.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])


def _model(variant, g, kappa=0.0, gamma=0.0, omega_cav=1.0, omega_mat=1.0):
    return CoupledModel(OscillatorPair(omega_cav, omega_mat, kappa, gamma), variant, g)


def _branches(model):
    """Lossless branch frequencies (omega_plus, omega_minus) of ``model`` as floats."""
    pair = model.pair
    plus, minus = branch_frequencies(model.variant, pair.omega_cav, pair.omega_mat, model.g)
    return float(plus), float(minus)


# ---------------------------------------------------------------------------
# drive inputs


def test_drive_spec_forces():
    d = DriveSpec(E_inc=2.0, omega=1.0, f_cav=9.0, f_mat=0.25)
    assert d.F_cav == 6.0
    assert d.F_mat == 1.0
    # force magnitude ignores the sign of the field amplitude
    assert DriveSpec(E_inc=-2.0, omega=1.0, f_cav=9.0, f_mat=0.25).F_cav == 6.0


def test_drive_spec_validation():
    with pytest.raises(PolaritonError):
        DriveSpec(E_inc=float("nan"), omega=1.0, f_cav=1.0, f_mat=1.0)
    with pytest.raises(PolaritonError):
        DriveSpec(E_inc=1.0, omega=-1.0, f_cav=1.0, f_mat=1.0)
    with pytest.raises(PolaritonError):
        DriveSpec(E_inc=1.0, omega=1.0, f_cav=-1.0, f_mat=1.0)


def test_solvers_enforce_their_variant():
    # only the two closed-form coupling forms are driven; the linearized and
    # dressed variants are rejected rather than solved
    drive = DriveSpec(E_inc=1.0, omega=0.7, f_cav=1.0, f_mat=1.0)
    for variant in (
        ModelVariant.LINEARIZED,
        ModelVariant.ALT_COULOMB_DRESSED_CAVITY,
        ModelVariant.ALT_DIPOLE_DRESSED_MATTER,
        ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY,
    ):
        with pytest.raises(PolaritonError, match="needs an SpC or MoC model"):
            driven_response(_model(variant, 0.1), drive)


# ---------------------------------------------------------------------------
# basic response structure


def test_uncoupled_response_is_a_lorentzian():
    model = _model(ModelVariant.SPC, 0.0, omega_cav=1.2, omega_mat=0.9)
    drive = DriveSpec(E_inc=1.0, omega=0.7, f_cav=4.0, f_mat=1.0)
    resp = driven_response(model, drive)
    assert resp.x_cav == pytest.approx(2.0 / (1.2**2 - 0.49), rel=1e-14)
    assert resp.x_mat == pytest.approx(1.0 / (0.9**2 - 0.49), rel=1e-14)
    assert resp.d_cav == pytest.approx(2.0 * resp.x_cav, rel=1e-14)


def test_lossy_uncoupled_response_matches_complex_frequency_pole():
    kappa = 0.2
    model = _model(ModelVariant.SPC, 0.0, kappa=kappa, omega_cav=1.0, omega_mat=3.0)
    drive = DriveSpec(E_inc=1.0, omega=1.0, f_cav=1.0, f_mat=0.0)
    resp = driven_response(model, drive)
    pole = (1.0 - 0.5j * kappa) ** 2 - 1.0
    assert resp.x_cav == pytest.approx(1.0 / pole, rel=1e-14)
    # driving exactly on the bare frequency, the lossy response stays finite
    assert np.isfinite(resp.x_cav.real) and np.isfinite(resp.x_cav.imag)


@given(
    omega=st.floats(min_value=0.2, max_value=2.5),
    g=st.floats(min_value=0.0, max_value=0.45),
    ratio=st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=200, deadline=None)
def test_response_satisfies_linear_system(omega, g, ratio):
    for variant in (ModelVariant.SPC, ModelVariant.MOC):
        model = _model(variant, g, kappa=0.05, gamma=0.02, omega_cav=ratio)
        drive = DriveSpec(E_inc=1.5, omega=omega, f_cav=2.0, f_mat=0.5)
        resp = driven_response(model, drive)
        m00, m01, m10, m11 = _system(variant, model.pair.complex_cav, model.pair.complex_mat, model.g, omega)
        lhs = np.array([m00 * resp.x_cav + m01 * resp.x_mat, m10 * resp.x_cav + m11 * resp.x_mat])
        rhs = np.array([drive.F_cav, drive.F_mat])
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1.0)


def test_driving_an_undamped_hybrid_mode_is_a_pole():
    model = _model(ModelVariant.SPC, 0.2)
    omega_plus, _ = _branches(model)
    drive = DriveSpec(E_inc=1.0, omega=omega_plus, f_cav=1.0, f_mat=1.0)
    with pytest.raises(PoleError, match="undamped hybrid mode"):
        driven_response(model, drive)
    moc = _model(ModelVariant.MOC, 0.2)
    _, moc_minus = _branches(moc)
    with pytest.raises(PoleError):
        driven_response(moc, DriveSpec(E_inc=1.0, omega=moc_minus, f_cav=1.0, f_mat=1.0))


def test_damping_regularizes_the_pole():
    lossless = _model(ModelVariant.SPC, 0.2)
    omega_pole, _ = _branches(lossless)
    lossy = _model(ModelVariant.SPC, 0.2, kappa=0.01, gamma=0.01)
    resp = driven_response(
        lossy, DriveSpec(E_inc=1.0, omega=omega_pole, f_cav=1.0, f_mat=1.0)
    )
    assert np.isfinite(abs(resp.x_cav))
    assert abs(resp.x_cav) > 10.0  # still strongly resonant


@given(scale=st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x))
@settings(max_examples=100, deadline=None)
def test_response_is_linear_in_the_drive(scale):
    model = _model(ModelVariant.MOC, 0.3, kappa=0.1)
    base = driven_response(model, DriveSpec(E_inc=1.0, omega=1.1, f_cav=2.0, f_mat=1.0))
    scaled = driven_response(
        model, DriveSpec(E_inc=scale, omega=1.1, f_cav=2.0, f_mat=1.0)
    )
    assert scaled.x_cav == pytest.approx(scale * base.x_cav, rel=1e-12)
    assert scaled.d_mat == pytest.approx(scale * base.d_mat, rel=1e-12)


def test_cross_response_reciprocity():
    # spring coupling: symmetric system matrix, so the cavity response to a
    # matter-only drive equals the matter response to a cavity-only drive
    model = _model(ModelVariant.SPC, 0.25, kappa=0.05, gamma=0.02)
    matter_only = DriveSpec(E_inc=1.0, omega=0.8, f_cav=0.0, f_mat=4.0)
    cavity_only = DriveSpec(E_inc=1.0, omega=0.8, f_cav=4.0, f_mat=0.0)
    a = driven_response(model, matter_only)
    b = driven_response(model, cavity_only)
    assert a.x_cav == pytest.approx(b.x_mat, rel=1e-12)
    # momentum coupling: antisymmetric coupling flips the sign
    moc = _model(ModelVariant.MOC, 0.25, kappa=0.05, gamma=0.02)
    a = driven_response(moc, matter_only)
    b = driven_response(moc, cavity_only)
    assert a.x_cav == pytest.approx(-b.x_mat, rel=1e-12)


def test_coupling_transfers_energy_to_the_undriven_oscillator():
    model = _model(ModelVariant.SPC, 0.2)
    drive = DriveSpec(E_inc=1.0, omega=0.8, f_cav=0.0, f_mat=1.0)
    resp = driven_response(model, drive)
    assert abs(resp.x_cav) > 0.01
    assert resp.d_cav == 0.0  # no oscillator strength, no dipole moment


# ---------------------------------------------------------------------------
# scattering cross section


def test_cross_section_quartic_frequency_scaling():
    resp = ResponseAmplitudes(x_cav=1.0, x_mat=0.0, d_cav=2.0, d_mat=0.5)
    s1 = scattering_cross_section(resp, _X, _X, 1.0, 1.0)
    s2 = scattering_cross_section(resp, _X, _X, 1.0, 2.0)
    assert s2 == pytest.approx(16.0 * s1, rel=1e-12)


def test_cross_section_antiparallel_dipoles_cancel():
    resp = ResponseAmplitudes(x_cav=1.0, x_mat=1.0, d_cav=1.0, d_mat=1.0)
    aligned = scattering_cross_section(resp, _X, _X, 1.0, 3.0)
    opposed = scattering_cross_section(resp, _X, -_X, 1.0, 3.0)
    assert opposed == pytest.approx(0.0, abs=1e-20)
    assert aligned == pytest.approx(
        4.0 * scattering_cross_section(
            ResponseAmplitudes(0, 0, 1.0, 0.0), _X, _X, 1.0, 3.0
        ),
        rel=1e-12,
    )


def test_cross_section_rotation_invariance():
    resp = ResponseAmplitudes(x_cav=0.3, x_mat=0.7, d_cav=1.2 + 0.1j, d_mat=0.4 - 0.2j)
    theta = 0.77
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    s_orig = scattering_cross_section(resp, _X, _Z, 1.0, 2.0)
    s_rot = scattering_cross_section(resp, rot @ _X, rot @ _Z, 1.0, 2.0)
    assert s_rot == pytest.approx(s_orig, rel=1e-12)


def test_cross_section_input_validation():
    resp = ResponseAmplitudes(x_cav=1.0, x_mat=1.0, d_cav=1.0, d_mat=1.0)
    with pytest.raises(PolaritonError):
        scattering_cross_section(resp, _X, _X, 0.0, 1.0)
    with pytest.raises(PolaritonError):
        scattering_cross_section(resp, _X, _X, 1.0, -2.0)
    with pytest.raises(PolaritonError):
        scattering_cross_section(resp, 2.0 * _X, _X, 1.0, 1.0)


# ---------------------------------------------------------------------------
# coupled-dipole oracle

_F_CAV = 4345.0**2  # plasmonic-sphere-like strength, e^2/m_p units
_F_MAT = 118.74**2  # strong molecular transition


def _dipole_pair_scene(kappa=0.0, gamma=0.0):
    r_c, r_m = np.zeros(3), np.array([6.0, 0.0, 0.0])
    g = coupling_dipole_dipole(
        OscillatorStrength(_F_CAV),
        OscillatorStrength(_F_MAT),
        r_c,
        r_m,
        _X,
        _X,
        3.0,
        3.0,
    )
    model = CoupledModel(
        OscillatorPair(3.0, 3.0, kappa, gamma), ModelVariant.SPC, g
    )
    f_c = OscillatorStrength(_F_CAV).reduced()
    f_m = OscillatorStrength(_F_MAT).reduced()
    return model, f_c, f_m, r_c, r_m


@pytest.mark.parametrize("kappa,gamma", [(0.0, 0.0), (0.2, 0.03)])
def test_oracle_agrees_with_model_solver(kappa, gamma):
    model, f_c, f_m, r_c, r_m = _dipole_pair_scene(kappa, gamma)
    for omega in (2.4, 2.8, 3.0, 3.2, 3.6):
        resp = driven_response(
            model, DriveSpec(E_inc=1.0, omega=omega, f_cav=f_c, f_mat=f_m)
        )
        oracle = polarizability_oracle(
            f_c, f_m, 3.0, 3.0, kappa, gamma, r_c, r_m, _X, _X, 1.0, omega
        )
        for attr in ("x_cav", "x_mat", "d_cav", "d_mat"):
            got, want = getattr(resp, attr), getattr(oracle, attr)
            assert got == pytest.approx(want, rel=1e-12)


def test_oracle_reduces_to_isolated_lorentzians_at_large_separation():
    f_c, f_m = 100.0, 25.0
    oracle = polarizability_oracle(
        f_c, f_m, 1.2, 0.9, 0.0, 0.0,
        np.zeros(3), np.array([1.0e6, 0.0, 0.0]), _X, _X, 1.0, 0.7,
    )
    assert oracle.d_cav == pytest.approx(f_c / (1.2**2 - 0.49), rel=1e-10)
    assert oracle.d_mat == pytest.approx(f_m / (0.9**2 - 0.49), rel=1e-10)


def test_oracle_singular_at_hybrid_mode():
    model, f_c, f_m, r_c, r_m = _dipole_pair_scene()
    omega_pole, _ = _branches(model)
    with pytest.raises(PoleError, match="singular"):
        polarizability_oracle(
            f_c, f_m, 3.0, 3.0, 0.0, 0.0, r_c, r_m, _X, _X, 1.0, omega_pole
        )


def test_oracle_input_validation():
    with pytest.raises(PolaritonError):
        polarizability_oracle(
            -1.0, 1.0, 1.0, 1.0, 0.0, 0.0, np.zeros(3), _X, _X, _X, 1.0, 1.0
        )
    with pytest.raises(PolaritonError):
        polarizability_oracle(
            1.0, 1.0, 1.0, 1.0, 0.0, 0.0, np.zeros(3), np.zeros(3), _X, _X, 1.0, 1.0
        )
    with pytest.raises(PolaritonError):
        polarizability_oracle(
            1.0, 1.0, 1.0, 1.0, -0.1, 0.0, np.zeros(3), 5.0 * _X, _X, _X, 1.0, 1.0
        )


# ---------------------------------------------------------------------------
# the closed form against an exact evaluation of the same float64 entries

_U = np.finfo(float).eps / 2  # unit roundoff


def _exact(z) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def _mul(a, b) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1]


def _div(a, b) -> tuple:
    norm = b[0] * b[0] + b[1] * b[1]
    re, im = _mul(a, (b[0], -b[1]))
    return re / norm, im / norm


def _abs(a) -> float:
    return math.hypot(float(a[0]), float(a[1]))


def _closed_form_error(model, drive) -> float:
    """Worst ``|x - x_exact| / (u kappa ||x_exact||)`` of ``driven_response`` over the grid.

    ``x_exact`` is Cramer's rule evaluated in exact rational arithmetic on
    the same float64 matrix entries and forces, and ``kappa = scale / |det|``
    with ``scale`` the product of the two row norms (so ``kappa >= 1``).
    Each rounded product and difference perturbs the numerators by a few
    ``u`` times ``scale ||x||`` and the determinant by a few ``u`` times
    ``scale``, which bounds the ratio by a constant.
    """
    resp = driven_response(model, drive)
    entries = _system(model.variant, model.pair.complex_cav, model.pair.complex_mat, model.g, drive.omega)
    x_cav, x_mat = np.atleast_1d(resp.x_cav), np.atleast_1d(resp.x_mat)
    f_cav, f_mat = (Fraction(drive.F_cav), 0), (Fraction(drive.F_mat), 0)
    worst = 0.0
    for i, m in enumerate(zip(*(entry.ravel() for entry in entries))):
        m00, m01, m10, m11 = (_exact(z) for z in m)
        det = _sub(_mul(m00, m11), _mul(m01, m10))
        want_cav = _div(_sub(_mul(m11, f_cav), _mul(m01, f_mat)), det)
        want_mat = _div(_sub(_mul(m00, f_mat), _mul(m10, f_cav)), det)
        scale = math.hypot(abs(m[0]), abs(m[1])) * math.hypot(abs(m[2]), abs(m[3]))
        kappa = scale / _abs(det)
        size = math.hypot(_abs(want_cav), _abs(want_mat))
        error = max(
            _abs(_sub(_exact(x_cav[i]), want_cav)), _abs(_sub(_exact(x_mat[i]), want_mat))
        )
        worst = max(worst, error / (_U * kappa * size))
    return worst


_CLOSED_FORM_BOUND = 16.0  # in units of u kappa ||x||


def _spectrum_curves(document):
    """(label, model, drive) of every curve of a spectrum document."""
    p = document["parameters"]
    grid = p["omega_grid"]
    omega = np.linspace(grid["start"], grid["stop"], grid["num"])
    for curve in p["curves"]:
        pair = OscillatorPair(curve["omega_cav"], curve["omega_mat"], curve["kappa"], curve["gamma"])
        model = CoupledModel(pair, ModelVariant(curve["variant"]), curve["g"])
        drive = DriveSpec(
            E_inc=p["E_inc"],
            omega=omega,
            f_cav=OscillatorStrength(curve["f_cav"]).reduced(),
            f_mat=OscillatorStrength(curve["f_mat"]).reduced(),
        )
        yield curve["label"], model, drive


@pytest.mark.parametrize("name", ["fig3c", "fig3d", "fig3e", "nanoparticle_spectrum"])
def test_closed_form_matches_exact_cramer_on_the_spectra(name):
    if name.startswith("fig"):
        document = figure_document(name)
    else:
        document, _ = load_scenario_file(_SCENARIOS / f"{name}.yaml")
    for label, model, drive in _spectrum_curves(document):
        worst = _closed_form_error(model, drive)
        assert worst <= _CLOSED_FORM_BOUND, (name, label, worst)


@given(
    variant=st.sampled_from([ModelVariant.SPC, ModelVariant.MOC]),
    omega_cav=st.floats(min_value=0.5, max_value=2.0),
    g=st.floats(min_value=0.01, max_value=0.3),
    log_kappa=st.floats(min_value=-16.0, max_value=-4.0),
    log_gamma=st.floats(min_value=-16.0, max_value=-4.0),
    upper=st.booleans(),
    log_offset=st.floats(min_value=-16.0, max_value=-6.0),
    sign=st.sampled_from([-1.0, 1.0]),
    f_cav=st.floats(min_value=0.1, max_value=10.0),
    f_mat=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_near_the_pole_guard_is_bounded_or_a_pole(
    variant, omega_cav, g, log_kappa, log_gamma, upper, log_offset, sign, f_cav, f_mat
):
    # nearly lossless pairs driven within a relative 1e-16..1e-6 of a
    # lossless branch: |det| / scale straddles the 1e-12 pole guard
    model = _model(variant, g, 10.0**log_kappa, 10.0**log_gamma, omega_cav=omega_cav)
    omega_plus, omega_minus = _branches(model)
    branch = omega_plus if upper else omega_minus
    omega = branch * (1.0 + sign * 10.0**log_offset)
    drive = DriveSpec(E_inc=1.0, omega=omega, f_cav=f_cav, f_mat=f_mat)
    try:
        worst = _closed_form_error(model, drive)
    except PoleError:
        return
    assert worst <= _CLOSED_FORM_BOUND
