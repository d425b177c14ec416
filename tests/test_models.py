"""Coupled-oscillator eigenmodes: closed forms, generic solver, alternatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab import PoleError, PolaritonError
from polariton_lab.models import (
    CoupledModel,
    ModelVariant,
    OscillatorPair,
    alternative_model_equivalence,
    eigenfrequencies,
    eigenvector_ratio,
    frequency_domain_matrix,
    generic_eigenfrequencies,
    linearized_eigenfrequencies,
    min_splitting,
    spc_lower_branch_exists,
)

_ratios = st.floats(min_value=0.3, max_value=3.0)
_gs = st.floats(min_value=0.0, max_value=0.45)


def _pair(ratio, omega_mat=1.0):
    return OscillatorPair(omega_cav=ratio * omega_mat, omega_mat=omega_mat)


# ---------------------------------------------------------------------------
# closed forms vs generic polynomial solver


@given(ratio=_ratios, g=_gs)
@settings(max_examples=300, deadline=None)
def test_spring_closed_form_matches_generic(ratio, g):
    model = CoupledModel(_pair(ratio), ModelVariant.SPC, g)
    if not spc_lower_branch_exists(ratio, 1.0, g):
        return
    closed = eigenfrequencies(model)
    gen_plus, gen_minus = generic_eigenfrequencies(model)
    assert closed.omega_plus == pytest.approx(gen_plus, rel=1e-12)
    assert closed.omega_minus == pytest.approx(gen_minus, rel=1e-12)


@given(ratio=_ratios, g=_gs)
@settings(max_examples=300, deadline=None)
def test_momentum_closed_form_matches_generic(ratio, g):
    model = CoupledModel(_pair(ratio), ModelVariant.MOC, g)
    closed = eigenfrequencies(model)
    gen_plus, gen_minus = generic_eigenfrequencies(model)
    assert closed.omega_plus == pytest.approx(gen_plus, rel=1e-12)
    assert closed.omega_minus == pytest.approx(gen_minus, rel=1e-12)


@given(ratio=_ratios, g=_gs)
@settings(max_examples=200, deadline=None)
def test_momentum_product_identity(ratio, g):
    # omega_+ omega_- = omega_cav omega_mat holds at any coupling
    model = CoupledModel(_pair(ratio), ModelVariant.MOC, g)
    modes = eigenfrequencies(model)
    assert modes.omega_plus * modes.omega_minus == pytest.approx(ratio, rel=1e-12)


def test_momentum_resonant_splitting_is_2g():
    for g in (0.05, 0.1, 0.3, 0.5):
        model = CoupledModel(_pair(1.0), ModelVariant.MOC, g)
        modes = eigenfrequencies(model)
        assert modes.omega_plus - modes.omega_minus == pytest.approx(2.0 * g, rel=1e-12)


def test_spring_resonant_splitting_exceeds_2g():
    # at g = 0.3 the square-root structure inflates the resonant splitting
    model = CoupledModel(_pair(1.0), ModelVariant.SPC, 0.3)
    modes = eigenfrequencies(model)
    split = modes.omega_plus - modes.omega_minus
    assert split / 0.3 == pytest.approx(2.1081852, rel=1e-6)


def test_spring_lower_branch_boundary():
    # real lower branch iff omega_cav omega_mat >= 4 g^2
    g = 0.3
    boundary = 4.0 * g**2  # omega_cav at omega_mat = 1
    assert spc_lower_branch_exists(boundary + 1e-6, 1.0, g)
    assert not spc_lower_branch_exists(boundary - 1e-6, 1.0, g)
    modes = eigenfrequencies(CoupledModel(_pair(boundary - 1e-4), ModelVariant.SPC, g))
    assert not modes.lower_branch_real


def test_momentum_zero_cavity_asymptote():
    # omega_+ -> sqrt(omega_mat^2 + 4 g^2) as the cavity softens
    g = 0.3
    model = CoupledModel(_pair(1e-4), ModelVariant.MOC, g)
    modes = eigenfrequencies(model)
    assert modes.omega_plus == pytest.approx(math.sqrt(1.0 + 4.0 * g**2), rel=1e-3)
    assert modes.omega_plus == pytest.approx(1.16619, rel=1e-3)


def test_variants_agree_in_weak_coupling():
    g = 0.01
    spc = eigenfrequencies(CoupledModel(_pair(1.0), ModelVariant.SPC, g))
    moc = eigenfrequencies(CoupledModel(_pair(1.0), ModelVariant.MOC, g))
    assert spc.omega_plus == pytest.approx(moc.omega_plus, rel=1e-2)
    assert spc.omega_minus == pytest.approx(moc.omega_minus, rel=1e-2)
    # but not at 1e-4: the conventions genuinely differ at second order in g
    assert spc.omega_minus != pytest.approx(moc.omega_minus, rel=1e-6)


@given(ratio=_ratios, g=st.floats(min_value=0.001, max_value=0.45))
@settings(max_examples=200, deadline=None)
def test_spring_sign_of_g_is_irrelevant(ratio, g):
    plus = CoupledModel(_pair(ratio), ModelVariant.SPC, g)
    minus = CoupledModel(_pair(ratio), ModelVariant.SPC, -g)
    a, b = eigenfrequencies(plus), eigenfrequencies(minus)
    assert a.omega_plus == b.omega_plus
    assert a.omega_minus == b.omega_minus


def test_momentum_rejects_negative_coupling():
    with pytest.raises(PolaritonError):
        CoupledModel(_pair(1.0), ModelVariant.MOC, -0.1)
    with pytest.raises(PolaritonError):
        CoupledModel(_pair(1.0), ModelVariant.LINEARIZED, -0.1)


def test_branch_ordering_and_bracketing():
    model = CoupledModel(_pair(1.3), ModelVariant.MOC, 0.25)
    modes = eigenfrequencies(model)
    assert modes.omega_minus.real < min(1.3, 1.0)
    assert modes.omega_plus.real > max(1.3, 1.0)
    assert modes.omega_plus.imag == 0.0
    assert modes.omega_minus.imag == 0.0


# ---------------------------------------------------------------------------
# eigenvectors


def test_eigenvector_satisfies_secular_equation():
    model = CoupledModel(_pair(1.2), ModelVariant.SPC, 0.3)
    modes = eigenfrequencies(model)
    for branch, omega in ((+1, modes.omega_plus), (-1, modes.omega_minus)):
        ratio = eigenvector_ratio(model, branch)
        vec = np.array([ratio, 1.0], dtype=complex)
        residual = frequency_domain_matrix(model, omega) @ vec
        assert np.max(np.abs(residual)) < 1e-10 * max(abs(ratio), 1.0)


def test_momentum_eigenvector_is_quadrature_shifted():
    # position amplitudes of the two oscillators are 90 degrees out of phase
    model = CoupledModel(_pair(1.0), ModelVariant.MOC, 0.2)
    for branch in (+1, -1):
        ratio = eigenvector_ratio(model, branch)
        assert ratio.real == pytest.approx(0.0, abs=1e-14)
        assert abs(ratio.imag) > 0.1


def test_eigenvector_ratio_decoupled_limits():
    # matter-like branch with g = 0: no cavity admixture
    model = CoupledModel(OscillatorPair(1.0, 2.0), ModelVariant.SPC, 0.0)
    assert abs(eigenvector_ratio(model, +1)) == 0.0
    # cavity-like branch: the ratio x_cav/x_mat diverges
    model = CoupledModel(OscillatorPair(2.0, 1.0), ModelVariant.SPC, 0.0)
    with pytest.raises(PoleError):
        eigenvector_ratio(model, +1)


def test_resonant_eigenvector_is_balanced():
    for g in (1e-2, 1e-4):
        model = CoupledModel(_pair(1.0), ModelVariant.SPC, g)
        assert abs(eigenvector_ratio(model, +1)) == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# minimum splitting over cavity detuning


def test_momentum_min_splitting_sits_at_resonance():
    out = min_splitting(ModelVariant.MOC, 0.3, 1.0)
    assert out.Omega_min == pytest.approx(0.6, rel=1e-9)
    assert out.omega_cav_at_min == pytest.approx(1.0, rel=1e-6)


def test_spring_min_splitting_is_blue_shifted():
    # the avoided crossing tightens above resonance for spring coupling
    out = min_splitting(ModelVariant.SPC, 0.3, 1.0)
    assert out.Omega_min == pytest.approx(0.63198984981901, rel=1e-9)
    assert out.omega_cav_at_min == pytest.approx(1.0235733658522896, rel=1e-6)
    assert out.omega_cav_at_min > 1.0
    assert out.Omega_min > 2.0 * 0.3


def test_min_splitting_custom_sweep():
    dense = min_splitting(ModelVariant.SPC, 0.3, 1.0)
    custom = min_splitting(
        ModelVariant.SPC, 0.3, 1.0, sweep=np.linspace(0.2, 3.0, 9001)
    )
    assert custom.Omega_min == pytest.approx(dense.Omega_min, rel=1e-6)
    # grids that do not cover the required detuning window are rejected
    with pytest.raises(PolaritonError):
        min_splitting(ModelVariant.SPC, 0.3, 1.0, sweep=np.linspace(0.9, 1.2, 2000))
    with pytest.raises(PolaritonError):
        min_splitting(ModelVariant.SPC, 0.3, 1.0, sweep=np.linspace(0.2, 3.0, 50))


@pytest.mark.parametrize("variant", [ModelVariant.SPC, ModelVariant.MOC, ModelVariant.LINEARIZED])
def test_min_splitting_over_a_g_grid_matches_the_scalar_call(variant):
    # g = 0, weak coupling, and g = 0.3 and 0.45, where the SpC lower-branch
    # cutoff (omega_cav < 4 g^2 / omega_mat) masks the low end of the sweep.
    # The sweep is dense below 1.01 and coarse above, so the SpC minima start
    # from brackets of different widths and converge after different numbers
    # of golden-section steps.
    sweep = np.concatenate([np.linspace(0.2, 1.01, 1000), np.linspace(1.02, 3.0, 200)])
    g_grid = np.array([0.0, 0.05, 0.3, 0.45])
    grid = min_splitting(variant, g_grid, 1.0, sweep=sweep)
    assert grid.Omega_min.shape == grid.omega_cav_at_min.shape == g_grid.shape
    for k, g in enumerate(g_grid):
        one = min_splitting(variant, float(g), 1.0, sweep=sweep)
        assert grid.Omega_min[k] == one.Omega_min
        assert grid.omega_cav_at_min[k] == one.omega_cav_at_min


def test_min_splitting_over_a_g_grid_rejects_a_coupling_without_real_branches():
    # at g = 1 the SpC lower branch is imaginary over the whole [0.2, 3] sweep
    with pytest.raises(PolaritonError, match="two real branches at g = 1.0"):
        min_splitting(ModelVariant.SPC, np.array([0.1, 1.0]), 1.0)
    with pytest.raises(PolaritonError, match="two real branches"):
        min_splitting(ModelVariant.SPC, 1.0, 1.0)


def test_linearized_min_splitting_is_2g_at_resonance():
    out = min_splitting(ModelVariant.LINEARIZED, 0.25, 1.0)
    assert out.Omega_min == pytest.approx(0.5, rel=1e-9)
    assert out.omega_cav_at_min == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# linearized (rotating-frame) model


def test_linearized_closed_form():
    w_c, w_m, g = 1.3, 1.0, 0.1
    plus, minus = linearized_eigenfrequencies(w_c, w_m, g)
    disc = math.sqrt((w_c - w_m) ** 2 + 4.0 * g**2)
    assert plus == pytest.approx(0.5 * (w_c + w_m + disc), rel=1e-14)
    assert minus == pytest.approx(0.5 * (w_c + w_m - disc), rel=1e-14)


def test_linearized_splitting_always_2g_at_resonance():
    for g in (0.05, 0.3, 0.5):
        plus, minus = linearized_eigenfrequencies(1.0, 1.0, g)
        assert plus - minus == pytest.approx(2.0 * g, rel=1e-12)


def test_linearized_accuracy_degrades_with_coupling():
    # deviations in units of omega_mat: ~1% at g = 0.1, >5% somewhere at g = 0.3
    grid = np.linspace(0.2, 2.0, 181)

    def worst(variant, g):
        errs = []
        for r in grid:
            model = CoupledModel(_pair(float(r)), variant, g)
            if variant is ModelVariant.SPC and not spc_lower_branch_exists(
                float(r), 1.0, g
            ):
                continue
            modes = eigenfrequencies(model)
            lp, lm = linearized_eigenfrequencies(float(r), 1.0, g)
            errs.append(abs(lp - modes.omega_plus))
            errs.append(abs(lm - modes.omega_minus))
        return max(errs)

    assert worst(ModelVariant.MOC, 0.1) < 0.02
    assert worst(ModelVariant.SPC, 0.1) < 0.02
    assert worst(ModelVariant.MOC, 0.3) > 0.05
    assert worst(ModelVariant.SPC, 0.3) > 0.05


# ---------------------------------------------------------------------------
# dressed alternatives


def _assert_same_spectrum(base, dressed, tol=1e-10):
    a, b = eigenfrequencies(base), eigenfrequencies(dressed)
    assert b.omega_plus == pytest.approx(a.omega_plus, rel=tol)
    assert b.omega_minus == pytest.approx(a.omega_minus, rel=tol)


@given(ratio=_ratios, g=st.floats(min_value=0.01, max_value=0.45))
@settings(max_examples=100, deadline=None)
def test_momentum_base_maps_to_both_amplitude_dressings(ratio, g):
    base = CoupledModel(_pair(ratio), ModelVariant.MOC, g)
    default = alternative_model_equivalence(base)
    assert default.variant is ModelVariant.ALT_COULOMB_DRESSED_CAVITY
    _assert_same_spectrum(base, default)
    matter = alternative_model_equivalence(base, ModelVariant.ALT_DIPOLE_DRESSED_MATTER)
    _assert_same_spectrum(base, matter)


def test_coulomb_dressing_stiffens_the_cavity():
    base = CoupledModel(_pair(1.0), ModelVariant.MOC, 0.3)
    dressed = alternative_model_equivalence(base)
    assert dressed.pair.omega_cav == pytest.approx(math.sqrt(1.0 + 4.0 * 0.09), rel=1e-14)
    assert dressed.pair.omega_mat == 1.0


def test_spring_base_maps_to_velocity_dressing():
    base = CoupledModel(_pair(0.8), ModelVariant.SPC, 0.2)
    dressed = alternative_model_equivalence(base)
    assert dressed.variant is ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY
    _assert_same_spectrum(base, dressed)


def test_spring_dressing_fails_when_dressed_cavity_collapses():
    # omega_cav^2 - 4 g'^2 <= 0: no valid velocity-coupled twin
    base = CoupledModel(OscillatorPair(0.4, 1.0), ModelVariant.SPC, 0.32)
    with pytest.raises(PolaritonError, match="dressed cavity frequency"):
        alternative_model_equivalence(base)


def test_alternative_equivalence_identity_at_zero_coupling():
    base = CoupledModel(_pair(1.1), ModelVariant.MOC, 0.0)
    dressed = alternative_model_equivalence(base)
    assert dressed.pair.omega_cav == pytest.approx(1.1, rel=1e-14)
    assert dressed.g == 0.0
    _assert_same_spectrum(base, dressed, tol=1e-13)


def test_alternative_equivalence_input_validation():
    lossy = CoupledModel(
        OscillatorPair(1.0, 1.0, kappa=0.1), ModelVariant.MOC, 0.2
    )
    with pytest.raises(PolaritonError):
        alternative_model_equivalence(lossy)
    alt_base = CoupledModel(_pair(1.0), ModelVariant.LINEARIZED, 0.2)
    with pytest.raises(PolaritonError):
        alternative_model_equivalence(alt_base)
    spring = CoupledModel(_pair(1.0), ModelVariant.SPC, 0.2)
    with pytest.raises(PolaritonError):
        alternative_model_equivalence(spring, ModelVariant.ALT_COULOMB_DRESSED_CAVITY)


# ---------------------------------------------------------------------------
# validation


def test_oscillator_pair_validation():
    with pytest.raises(PolaritonError):
        OscillatorPair(-1.0, 1.0)
    with pytest.raises(PolaritonError):
        OscillatorPair(1.0, float("inf"))
    with pytest.raises(PolaritonError):
        OscillatorPair(1.0, 1.0, kappa=-0.5)


def test_frequency_domain_matrix_shapes():
    model = CoupledModel(_pair(1.0), ModelVariant.SPC, 0.2)
    m = frequency_domain_matrix(model, 1.1)
    assert m.shape == (2, 2)
    assert m.dtype == complex
    # spring coupling: symmetric off-diagonal
    assert m[0, 1] == m[1, 0]
    moc = frequency_domain_matrix(CoupledModel(_pair(1.0), ModelVariant.MOC, 0.2), 1.1)
    # momentum coupling: antisymmetric, purely imaginary off-diagonal
    assert moc[0, 1] == -moc[1, 0]
    assert moc[0, 1].real == 0.0
