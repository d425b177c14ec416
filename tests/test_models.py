"""Coupled-oscillator eigenmodes: closed forms, generic solver, alternatives."""

import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab import PoleError, PolaritonError
from polariton_lab.models import (
    _AMPLITUDE_FORM,
    _VELOCITY_FORM,
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    _spc_tau,
    _system,
    branch_frequencies,
    dressed_parameters,
    min_splitting,
    mode_ratio,
)

_ratios = st.floats(min_value=0.3, max_value=3.0)
_gs = st.floats(min_value=0.0, max_value=0.45)


def _pair(ratio, omega_mat=1.0):
    return OscillatorPair(omega_cav=ratio * omega_mat, omega_mat=omega_mat)


# ---------------------------------------------------------------------------
# closed forms vs generic polynomial solver


def generic_eigenfrequencies(model: CoupledModel) -> tuple[complex, complex]:
    """Eigenfrequencies from the 2x2 system matrices, without closed forms.

    The independent oracle for the closed forms.  Amplitude-coupled systems
    are an eigenproblem in omega^2; velocity-coupled systems are quadratic in
    omega and are linearized to a 4x4 companion problem.  Of each +/-
    frequency pair the root with Re(omega) >= 0 is kept.
    """
    wc, wm = model.pair.complex_cav, model.pair.complex_mat
    g = model.g
    if model.variant in _AMPLITUDE_FORM:
        cross = 2.0 * g * cmath.sqrt(wc * wm)
        k = np.array([[wc * wc, cross], [cross, wm * wm]], dtype=complex)
        # principal root: Re(omega) >= 0
        omegas = [cmath.sqrt(s) for s in np.linalg.eigvals(k)]
    elif model.variant in _VELOCITY_FORM:
        k = np.diag([wc * wc, wm * wm]).astype(complex)
        j = np.array([[0.0, -2.0 * g], [2.0 * g, 0.0]], dtype=complex)
        comp = np.zeros((4, 4), dtype=complex)
        comp[:2, 2:] = np.eye(2)
        comp[2:, :2] = -k
        comp[2:, 2:] = -j
        freqs = 1j * np.linalg.eigvals(comp)  # x ~ exp(-i w t) => lambda = -i w
        omegas = sorted(freqs, key=lambda w: (-w.real, -w.imag))[:2]
    else:
        m = np.array([[wc, g], [g, wm]], dtype=complex)
        omegas = [complex(w) for w in np.linalg.eigvals(m)]
    omegas.sort(key=lambda w: (w.real, w.imag))
    return omegas[1], omegas[0]


@given(ratio=_ratios, g=_gs)
@settings(max_examples=300, deadline=None)
def test_spring_closed_form_matches_generic(ratio, g):
    model = CoupledModel(_pair(ratio), ModelVariant.SPC, g)
    plus, minus = branch_frequencies(ModelVariant.SPC, ratio, 1.0, g)
    if np.isnan(minus):
        return
    gen_plus, gen_minus = generic_eigenfrequencies(model)
    assert float(plus) == pytest.approx(gen_plus, rel=1e-12)
    assert float(minus) == pytest.approx(gen_minus, rel=1e-12)


@given(ratio=_ratios, g=_gs)
@settings(max_examples=300, deadline=None)
def test_momentum_closed_form_matches_generic(ratio, g):
    model = CoupledModel(_pair(ratio), ModelVariant.MOC, g)
    plus, minus = branch_frequencies(ModelVariant.MOC, ratio, 1.0, g)
    gen_plus, gen_minus = generic_eigenfrequencies(model)
    assert float(plus) == pytest.approx(gen_plus, rel=1e-12)
    assert float(minus) == pytest.approx(gen_minus, rel=1e-12)


@given(ratio=_ratios, g=_gs)
@settings(max_examples=200, deadline=None)
def test_momentum_product_identity(ratio, g):
    # omega_+ omega_- = omega_cav omega_mat holds at any coupling
    plus, minus = branch_frequencies(ModelVariant.MOC, ratio, 1.0, g)
    assert float(plus * minus) == pytest.approx(ratio, rel=1e-12)


def test_momentum_resonant_splitting_is_2g():
    g = np.array([0.05, 0.1, 0.3, 0.5])
    plus, minus = branch_frequencies(ModelVariant.MOC, 1.0, 1.0, g)
    assert plus - minus == pytest.approx(2.0 * g, rel=1e-12)


def test_spring_resonant_splitting_exceeds_2g():
    # at g = 0.3 the square-root structure inflates the resonant splitting
    plus, minus = branch_frequencies(ModelVariant.SPC, 1.0, 1.0, 0.3)
    split = float(plus - minus)
    assert split / 0.3 == pytest.approx(2.1081852, rel=1e-6)


def test_spring_lower_branch_boundary():
    # real lower branch iff omega_cav omega_mat >= 4 g^2
    g = 0.3
    boundary = 4.0 * g**2  # omega_cav at omega_mat = 1
    omega_cav = np.array([boundary + 1e-6, boundary - 1e-6, boundary - 1e-4])
    plus, minus = branch_frequencies(ModelVariant.SPC, omega_cav, 1.0, g)
    assert not np.isnan(minus[0])
    assert np.isnan(minus[1])
    assert np.isnan(minus[2])
    # the upper branch stays real across the cutoff
    assert np.all(np.isfinite(plus))


def test_momentum_zero_cavity_asymptote():
    # omega_+ -> sqrt(omega_mat^2 + 4 g^2) as the cavity softens
    g = 0.3
    plus, _ = branch_frequencies(ModelVariant.MOC, 1e-4, 1.0, g)
    assert float(plus) == pytest.approx(math.sqrt(1.0 + 4.0 * g**2), rel=1e-3)
    assert float(plus) == pytest.approx(1.16619, rel=1e-3)


def test_variants_agree_in_weak_coupling():
    g = 0.01
    spc_plus, spc_minus = branch_frequencies(ModelVariant.SPC, 1.0, 1.0, g)
    moc_plus, moc_minus = branch_frequencies(ModelVariant.MOC, 1.0, 1.0, g)
    assert float(spc_plus) == pytest.approx(float(moc_plus), rel=1e-2)
    assert float(spc_minus) == pytest.approx(float(moc_minus), rel=1e-2)
    # but not at 1e-4: the conventions genuinely differ at second order in g
    assert float(spc_minus) != pytest.approx(float(moc_minus), rel=1e-6)


@given(ratio=_ratios, g=st.floats(min_value=0.001, max_value=0.45))
@settings(max_examples=200, deadline=None)
def test_spring_sign_of_g_is_irrelevant(ratio, g):
    plus, minus = branch_frequencies(ModelVariant.SPC, ratio, 1.0, np.array([g, -g]))
    assert plus[0] == plus[1]
    # NaN (no real lower branch) on one side only would also fail here
    np.testing.assert_array_equal(minus[0], minus[1])


def test_momentum_rejects_negative_coupling():
    with pytest.raises(PolaritonError):
        CoupledModel(_pair(1.0), ModelVariant.MOC, -0.1)
    with pytest.raises(PolaritonError):
        CoupledModel(_pair(1.0), ModelVariant.LINEARIZED, -0.1)


def test_branch_ordering_and_bracketing():
    plus, minus = branch_frequencies(ModelVariant.MOC, 1.3, 1.0, 0.25)
    assert minus < min(1.3, 1.0)
    assert plus > max(1.3, 1.0)
    # both branches are real frequencies: finite, not NaN-masked
    assert np.isfinite(plus)
    assert np.isfinite(minus)


# ---------------------------------------------------------------------------
# eigenvectors


@pytest.mark.parametrize("g", [0.3, 0.6])
@pytest.mark.parametrize("variant", list(ModelVariant), ids=lambda v: v.value)
def test_eigenvector_satisfies_secular_equation(variant, g):
    omega = np.array(branch_frequencies(variant, 1.2, 1.0, g))  # (omega_plus, omega_minus)
    omega = omega[~np.isnan(omega)]  # a masked lower branch has no eigenvector
    ratio = mode_ratio(variant, 1.2, 1.0, g, omega)
    m00, m01, m10, m11 = _system(variant, 1.2, 1.0, g, omega)
    residual = np.stack([m00 * ratio + m01, m10 * ratio + m11], axis=-1)
    assert residual.shape == (len(omega), 2)
    for row, r in zip(residual, ratio):
        assert np.max(np.abs(row)) < 1e-10 * max(abs(r), 1.0)


def test_momentum_eigenvector_is_quadrature_shifted():
    # position amplitudes of the two oscillators are 90 degrees out of phase
    omega = np.array(branch_frequencies(ModelVariant.MOC, 1.0, 1.0, 0.2))
    ratio = mode_ratio(ModelVariant.MOC, 1.0, 1.0, 0.2, omega)
    for r in ratio:
        assert r.real == pytest.approx(0.0, abs=1e-14)
        assert abs(r.imag) > 0.1


def test_eigenvector_ratio_decoupled_limits():
    # matter-like upper branch with g = 0: no cavity admixture, and a 0-d
    # array in gives a 0-d array out
    plus, _ = branch_frequencies(ModelVariant.SPC, 1.0, 2.0, 0.0)
    ratio = mode_ratio(ModelVariant.SPC, 1.0, 2.0, 0.0, plus)
    assert np.ndim(plus) == np.ndim(ratio) == 0
    assert abs(ratio) == 0.0
    # cavity-like branch: the ratio x_cav/x_mat diverges
    plus, _ = branch_frequencies(ModelVariant.SPC, 2.0, 1.0, 0.0)
    with pytest.raises(PoleError, match="coincides with the bare cavity frequency$"):
        mode_ratio(ModelVariant.SPC, 2.0, 1.0, 0.0, plus)


def test_mode_ratio_pole_names_its_grid_row():
    # row 0 is matter-like (finite ratio), row 1 cavity-like (a pole)
    omega_cav = np.array([0.5, 2.0])
    plus, _ = branch_frequencies(ModelVariant.SPC, omega_cav, 1.0, 0.0)
    assert abs(mode_ratio(ModelVariant.SPC, omega_cav[:1], 1.0, 0.0, plus[:1])[0]) == 0.0
    with pytest.raises(PoleError, match=r"branch frequency 2\.0 .* \(grid row 1\)"):
        mode_ratio(ModelVariant.SPC, omega_cav, 1.0, 0.0, plus)


def test_resonant_eigenvector_is_balanced():
    g = np.array([1e-2, 1e-4])
    plus, _ = branch_frequencies(ModelVariant.SPC, 1.0, 1.0, g)
    assert np.abs(mode_ratio(ModelVariant.SPC, 1.0, 1.0, g, plus)) == pytest.approx(
        np.ones(2), rel=1e-6
    )


# ---------------------------------------------------------------------------
# minimum splitting over cavity detuning


def test_momentum_min_splitting_sits_at_resonance():
    out = min_splitting(ModelVariant.MOC, 0.3, 1.0)
    assert out.Omega_min == 2.0 * 0.3
    assert out.omega_cav_at_min == 1.0


def test_spring_min_splitting_is_blue_shifted():
    # the avoided crossing tightens above resonance for spring coupling
    out = min_splitting(ModelVariant.SPC, 0.3, 1.0)
    assert out.Omega_min == pytest.approx(0.63198984981901, rel=1e-9)
    assert out.omega_cav_at_min == pytest.approx(1.0235733658522896, rel=1e-6)
    assert out.omega_cav_at_min > 1.0
    assert out.Omega_min > 2.0 * 0.3


@pytest.mark.parametrize("variant", [ModelVariant.SPC, ModelVariant.MOC, ModelVariant.LINEARIZED])
def test_min_splitting_over_a_g_grid_matches_the_scalar_call(variant):
    # g = 0, weak coupling, and g = 0.3 and 0.45, where the SpC lower-branch
    # cutoff (omega_cav < 4 g^2 / omega_mat) sits close to the minimum
    g_grid = np.array([0.0, 0.05, 0.3, 0.45])
    grid = min_splitting(variant, g_grid, 1.0)
    assert grid.Omega_min.shape == grid.omega_cav_at_min.shape == g_grid.shape
    for k, g in enumerate(g_grid):
        one = min_splitting(variant, float(g), 1.0)
        assert grid.Omega_min[k] == one.Omega_min
        assert grid.omega_cav_at_min[k] == one.omega_cav_at_min


@pytest.mark.parametrize("omega_mat", [1.0, 2.5])
def test_spc_min_splitting_matches_a_dense_scan(omega_mat):
    # couplings up to 5 omega_mat, where the minimum sits near 4 g^2 / omega_mat;
    # the scan starts at that cutoff, below which the lower branch is not real
    for gamma in (0.05, 0.3, 0.5, 1.0, 5.0):
        g = gamma * omega_mat
        cutoff = 4.0 * g * g / omega_mat
        omega_cav = np.linspace(cutoff, cutoff + 2.0 * omega_mat, 1_000_001)
        plus, minus = branch_frequencies(ModelVariant.SPC, omega_cav, omega_mat, g)
        split = plus - minus
        i = int(np.nanargmin(split))
        assert 0 < i < omega_cav.size - 1  # an interior minimum
        out = min_splitting(ModelVariant.SPC, g, omega_mat)
        assert out.Omega_min <= split[i]
        assert split[i] - out.Omega_min <= 1e-10 * out.Omega_min
        assert abs(out.omega_cav_at_min - omega_cav[i]) <= 2.0 * (omega_cav[1] - omega_cav[0])
        # the splitting computed from the branches at the closed-form abscissa
        plus, minus = branch_frequencies(ModelVariant.SPC, out.omega_cav_at_min, omega_mat, g)
        assert plus - minus == pytest.approx(out.Omega_min, rel=1e-13)


def test_spc_tau_is_the_root_of_the_quartic():
    # Ferrari's root of tau^4 + 8 gamma^2 tau - 1 = 0 against Newton's method
    # polished in 60-digit decimal arithmetic
    gammas = np.concatenate([[0.0, 1e-300, 1e-8], np.logspace(-4, 70, 75)])
    taus = _spc_tau(gammas)
    with localcontext() as ctx:
        ctx.prec = 60
        for gamma, tau in zip(gammas, taus):
            c = 8 * Decimal(float(gamma)) ** 2
            t = Decimal(float(tau))
            for _ in range(8):
                t -= (t**4 + c * t - 1) / (4 * t**3 + c)
            assert 0.0 < tau <= 1.0
            assert abs(tau - float(t)) <= 1e-15 * float(t), gamma


def test_min_splitting_at_zero_coupling_is_zero():
    for variant in (ModelVariant.SPC, ModelVariant.MOC, ModelVariant.LINEARIZED):
        out = min_splitting(variant, np.zeros(3), 2.0)
        assert np.array_equal(out.Omega_min, np.zeros(3))
        assert np.array_equal(out.omega_cav_at_min, np.full(3, 2.0))


@pytest.mark.parametrize("omega_mat", [0.0, -1.0, math.nan, math.inf])
def test_min_splitting_rejects_a_bad_matter_frequency(omega_mat):
    with pytest.raises(PolaritonError, match="omega_mat must be finite and positive"):
        min_splitting(ModelVariant.SPC, 0.1, omega_mat)


@pytest.mark.parametrize("variant", [ModelVariant.SPC, ModelVariant.MOC, ModelVariant.LINEARIZED])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_min_splitting_rejects_a_non_finite_coupling(variant, bad):
    with pytest.raises(PolaritonError, match=r"coupling strength must be finite.*\(grid row 2\)"):
        min_splitting(variant, np.array([0.1, 0.2, bad]), 1.0)
    with pytest.raises(PolaritonError, match="coupling strength must be finite"):
        min_splitting(variant, bad, 1.0)


def test_linearized_min_splitting_is_2g_at_resonance():
    out = min_splitting(ModelVariant.LINEARIZED, 0.25, 1.0)
    assert out.Omega_min == 2.0 * 0.25
    assert out.omega_cav_at_min == 1.0


# ---------------------------------------------------------------------------
# linearized (rotating-frame) model


def test_linearized_closed_form():
    w_c, w_m, g = 1.3, 1.0, 0.1
    plus, minus = branch_frequencies(ModelVariant.LINEARIZED, w_c, w_m, g)
    disc = math.sqrt((w_c - w_m) ** 2 + 4.0 * g**2)
    assert float(plus) == pytest.approx(0.5 * (w_c + w_m + disc), rel=1e-14)
    assert float(minus) == pytest.approx(0.5 * (w_c + w_m - disc), rel=1e-14)


def test_linearized_splitting_always_2g_at_resonance():
    g = np.array([0.05, 0.3, 0.5])
    plus, minus = branch_frequencies(ModelVariant.LINEARIZED, 1.0, 1.0, g)
    assert plus - minus == pytest.approx(2.0 * g, rel=1e-12)


def test_linearized_branches_require_positive_frequencies():
    with pytest.raises(PolaritonError, match="frequencies must be positive"):
        branch_frequencies(ModelVariant.LINEARIZED, np.array([1.0, 0.0]), 1.0, 0.1)
    with pytest.raises(PolaritonError, match="frequencies must be positive"):
        branch_frequencies(ModelVariant.LINEARIZED, 1.0, -1.0, 0.1)


def test_linearized_accuracy_degrades_with_coupling():
    # deviations in units of omega_mat: ~1% at g = 0.1, >5% somewhere at g = 0.3
    grid = np.linspace(0.2, 2.0, 181)

    def worst(variant, g):
        plus, minus = branch_frequencies(variant, grid, 1.0, g)
        lp, lm = branch_frequencies(ModelVariant.LINEARIZED, grid, 1.0, g)
        real = ~np.isnan(minus)  # the SpC lower branch is cut off at small omega_cav
        return max(np.max(np.abs(lp - plus)[real]), np.max(np.abs(lm - minus)[real]))

    assert worst(ModelVariant.MOC, 0.1) < 0.02
    assert worst(ModelVariant.SPC, 0.1) < 0.02
    assert worst(ModelVariant.MOC, 0.3) > 0.05
    assert worst(ModelVariant.SPC, 0.3) > 0.05


# ---------------------------------------------------------------------------
# dressed alternatives


def _assert_same_spectrum(base, target, omega_cav, omega_mat, g, tol=1e-10):
    dressed = dressed_parameters(target, omega_cav, omega_mat, g)
    a_plus, a_minus = branch_frequencies(base, omega_cav, omega_mat, g)
    b_plus, b_minus = branch_frequencies(target, *dressed)
    assert b_plus == pytest.approx(a_plus, rel=tol)
    assert b_minus == pytest.approx(a_minus, rel=tol)


_MOC, _SPC = ModelVariant.MOC, ModelVariant.SPC
_COULOMB = ModelVariant.ALT_COULOMB_DRESSED_CAVITY
_MATTER = ModelVariant.ALT_DIPOLE_DRESSED_MATTER
_DIPOLE_DIPOLE = ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY


@given(ratio=_ratios, g=st.floats(min_value=0.01, max_value=0.45))
@settings(max_examples=100, deadline=None)
def test_momentum_base_maps_to_both_amplitude_dressings(ratio, g):
    _assert_same_spectrum(_MOC, _COULOMB, ratio, 1.0, g)
    _assert_same_spectrum(_MOC, _MATTER, ratio, 1.0, g)


def test_coulomb_dressing_stiffens_the_cavity():
    wc, wm, _ = dressed_parameters(_COULOMB, 1.0, 1.0, 0.3)
    assert float(wc) == pytest.approx(math.sqrt(1.0 + 4.0 * 0.09), rel=1e-14)
    assert wm == 1.0


def test_spring_base_maps_to_velocity_dressing():
    _assert_same_spectrum(_SPC, _DIPOLE_DIPOLE, 0.8, 1.0, 0.2)


def test_spring_dressing_fails_when_dressed_cavity_collapses():
    # omega_cav^2 - 4 g'^2 <= 0 at (0.4, 1.0, 0.32): no valid velocity-coupled
    # twin there, while (0.8, 1.0, 0.2) on the same grid is valid
    omega_cav, g = np.array([0.8, 0.4]), np.array([0.2, 0.32])
    wc, wm, g_dressed = dressed_parameters(_DIPOLE_DIPOLE, omega_cav, 1.0, g)
    assert not np.isnan(wc[0])
    assert np.isnan(wc[1])
    assert np.all(np.isfinite(g_dressed))
    plus, minus = branch_frequencies(_DIPOLE_DIPOLE, wc, wm, g_dressed)
    assert np.isnan(plus[1]) and np.isnan(minus[1])
    base_plus, base_minus = branch_frequencies(_SPC, omega_cav, 1.0, g)
    assert plus[0] == pytest.approx(base_plus[0], rel=1e-10)
    assert minus[0] == pytest.approx(base_minus[0], rel=1e-10)


def test_alternative_equivalence_identity_at_zero_coupling():
    wc, _, g = dressed_parameters(_COULOMB, 1.1, 1.0, 0.0)
    assert float(wc) == pytest.approx(1.1, rel=1e-14)
    assert g == 0.0
    _assert_same_spectrum(_MOC, _COULOMB, 1.1, 1.0, 0.0, tol=1e-13)


def test_alternative_equivalence_input_validation():
    # only a dressed variant has dressed parameters; the error names the variant
    for variant in (_SPC, _MOC, ModelVariant.LINEARIZED):
        with pytest.raises(PolaritonError, match=f"{variant} is not a dressed model variant"):
            dressed_parameters(variant, 1.0, 1.0, 0.2)


# ---------------------------------------------------------------------------
# validation


def test_oscillator_pair_validation():
    with pytest.raises(PolaritonError):
        OscillatorPair(-1.0, 1.0)
    with pytest.raises(PolaritonError):
        OscillatorPair(1.0, float("inf"))
    with pytest.raises(PolaritonError):
        OscillatorPair(1.0, 1.0, kappa=-0.5)


def test_system_entries():
    for variant in ModelVariant:
        # scalar arguments give 0-d complex arrays, not numpy scalars
        for entry in _system(variant, 1.0, 1.0, 0.2, 1.1):
            assert type(entry) is np.ndarray
            assert entry.shape == ()
            assert entry.dtype == complex
        # a grid in any argument gives complex entries of its shape
        for omega_cav, omega in ((np.ones(3), 1.1), (1.0, np.ones(3))):
            for entry in _system(variant, omega_cav, 1.0, 0.2, omega):
                assert entry.shape == (3,)
                assert entry.dtype == complex
    # spring coupling: symmetric off-diagonal
    _, m01, m10, _ = _system(ModelVariant.SPC, 1.0, 1.0, 0.2, 1.1)
    assert m01 == m10
    # momentum coupling: antisymmetric, purely imaginary off-diagonal
    _, m01, m10, _ = _system(ModelVariant.MOC, 1.0, 1.0, 0.2, 1.1)
    assert m01 == -m10
    assert m01.real == 0.0
    assert m01.imag != 0.0
