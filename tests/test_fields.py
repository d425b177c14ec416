"""Spatial field maps and contribution weights for the single-emitter scenes."""

import math

import numpy as np
import pytest

from polariton_lab import PolaritonError
from polariton_lab.driven import ResponseAmplitudes
from polariton_lab.fields import (
    BoxCavityScene,
    FieldArrays,
    NanoparticleScene,
    contribution_fractions,
    dielectric_field_arrays,
    mode_profile_box,
    quasistatic_field_arrays,
)

_Z = np.array([0.0, 0.0, 1.0])
_F_MAT = 118.74**2


def _box(omega_cav=3.0, omega_mat=3.0):
    return BoxCavityScene(
        L=(20.0, 20.0, 20.0),
        V_eff=1.0e6,
        omega_cav=omega_cav,
        r_mat=np.zeros(3),
        n_d=_Z,
        f_mat=_F_MAT,
        omega_mat=omega_mat,
    )


# ---------------------------------------------------------------------------
# box mode profile


def test_mode_profile_reference_points():
    scene = _box()
    points = [(0.0, 0.0, 0.0), (10.0, 0.0, 0.0), (5.0, 0.0, 0.0), (3.0, 4.0, -7.0)]
    xi = mode_profile_box(scene, points)
    assert xi.shape == (4,)
    assert xi[0] == 1.0
    assert xi[1] == pytest.approx(0.0, abs=1e-15)
    assert xi[2] == pytest.approx(math.cos(math.pi / 4.0), rel=1e-14)
    # constant along z, separable in x and y
    assert xi[3] == pytest.approx(
        math.cos(math.pi * 3.0 / 20.0) * math.cos(math.pi * 4.0 / 20.0), rel=1e-14
    )


def test_mode_profile_outside_box_rejected():
    scene = _box()
    with pytest.raises(PolaritonError, match=r"\(row 1\) lies outside the box"):
        mode_profile_box(scene, [(0.0, 0.0, 0.0), (10.5, 0.0, 0.0)])
    with pytest.raises(PolaritonError, match="3-vectors"):
        mode_profile_box(scene, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# hybrid field maps in the dielectric box


def _axis_positions():
    return [np.array([0.0, 0.0, z]) for z in np.linspace(1.0, 9.0, 17)]


def test_upper_branch_cavity_term_normalized_to_one():
    fields = dielectric_field_arrays(_box(), g=0.3, branch=+1, positions=_axis_positions())
    assert isinstance(fields, FieldArrays)
    assert fields.E_cav.shape == (17, 3)
    peak = float(np.max(np.abs(fields.E_cav[~fields.excluded])))
    assert peak == pytest.approx(1.0, rel=1e-12)


def test_total_field_is_sum_of_parts():
    for branch in (+1, -1):
        fields = dielectric_field_arrays(_box(), g=0.3, branch=branch, positions=_axis_positions())
        for e_total, e_cav, e_mat in zip(fields.E_total, fields.E_cav, fields.E_mat):
            assert np.allclose(e_total, e_cav + e_mat, atol=1e-15)


def test_branches_flip_the_cavity_term_only():
    # at zero detuning the matter term is identical on the two branches while
    # the cavity term flips sign and rescales by the branch frequency ratio
    pos = _axis_positions()
    upper = dielectric_field_arrays(_box(), 0.3, +1, pos)
    lower = dielectric_field_arrays(_box(), 0.3, -1, pos)
    w_plus, w_minus = 3.31496, 2.71496  # momentum-model branches of (3, 3, g=0.3)
    for u_mat, l_mat, u_cav, l_cav in zip(upper.E_mat, lower.E_mat, upper.E_cav, lower.E_cav):
        assert np.allclose(l_mat, u_mat, rtol=1e-10, atol=1e-14)
        assert np.allclose(l_cav, -(w_minus / w_plus) * u_cav, rtol=1e-4, atol=1e-14)


def test_relative_alignment_differs_between_branches():
    # where one branch superposes constructively the other interferes
    pos = [np.array([0.0, 0.0, 4.0])]
    upper = dielectric_field_arrays(_box(), 0.3, +1, pos)
    lower = dielectric_field_arrays(_box(), 0.3, -1, pos)
    dot_u = float(np.dot(upper.E_cav[0], upper.E_mat[0]))
    dot_l = float(np.dot(lower.E_cav[0], lower.E_mat[0]))
    assert dot_u * dot_l < 0.0


def test_core_exclusion_zeroes_samples():
    pos = [np.zeros(3) + 1e-3, np.array([0.0, 0.0, 5.0])]
    fields = dielectric_field_arrays(_box(), 0.3, +1, pos, core_radius=0.1)
    assert fields.excluded.tolist() == [True, False]
    assert np.all(fields.E_total[0] == 0.0)
    assert np.all(fields.E_cav[0] == 0.0) and np.all(fields.E_mat[0] == 0.0)


def test_decoupled_map_is_a_pure_mode():
    scene = _box(omega_cav=3.2, omega_mat=3.0)
    pos = _axis_positions()
    cavity_like = dielectric_field_arrays(scene, 0.0, +1, pos)
    assert np.all(cavity_like.E_mat == 0.0)
    peak = float(np.max(np.abs(cavity_like.E_cav)))
    assert peak == pytest.approx(1.0, rel=1e-12)
    matter_like = dielectric_field_arrays(scene, 0.0, -1, pos)
    assert np.all(matter_like.E_cav == 0.0)
    peak = float(np.max(np.abs(matter_like.E_mat)))
    assert peak == pytest.approx(1.0, rel=1e-12)


def test_map_without_normalization_anchor_is_rejected():
    # every supplied position falls in the excluded emitter core
    core_only = [np.array([0.0, 0.0, 0.05]), np.array([0.05, 0.0, 0.0])]
    with pytest.raises(PolaritonError, match="cannot normalize"):
        dielectric_field_arrays(_box(), 0.3, +1, core_only)
    with pytest.raises(PolaritonError, match="vanish"):
        dielectric_field_arrays(_box(), 0.0, +1, core_only)


def test_invalid_branch_rejected():
    with pytest.raises(PolaritonError):
        dielectric_field_arrays(_box(), 0.3, 2, _axis_positions())


# ---------------------------------------------------------------------------
# contribution fractions


def test_fractions_sum_to_one_exactly():
    scene = _box()
    for z in (0.5, 2.0, 5.0, 9.0):
        sigma_cav, sigma_mat = contribution_fractions(scene, 0.3, +1, (0.0, 0.0, z))
        assert sigma_cav + sigma_mat == 1.0
        assert 0.0 <= sigma_cav <= 1.0


def test_fractions_cross_over_with_distance():
    # the emitter's near field dominates close in, the cavity mode far out
    scene = _box()
    near = contribution_fractions(scene, 0.3, +1, (0.0, 0.0, 0.5))
    far = contribution_fractions(scene, 0.3, +1, (0.0, 0.0, 9.0))
    assert near[1] > 0.9
    assert far[0] > near[0]


def test_fractions_inside_core_rejected():
    with pytest.raises(PolaritonError, match="core"):
        contribution_fractions(_box(), 0.3, +1, (0.0, 0.0, 0.05))


def test_fractions_of_pure_cavity_mode():
    # with the coupling off, the cavity-like branch carries all the weight
    scene = _box(omega_cav=3.2, omega_mat=3.0)
    assert contribution_fractions(scene, 0.0, +1, (4.0, 0.0, 5.0)) == (1.0, 0.0)
    assert contribution_fractions(scene, 0.0, -1, (4.0, 0.0, 5.0)) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# quasistatic nanoparticle maps


def _np_scene():
    return NanoparticleScene(
        R_cav=5.0,
        r_cav=np.zeros(3),
        r_mat=np.array([10.0, 0.0, 0.0]),
        n_dcav=_Z,
        n_dmat=_Z,
    )


def test_quasistatic_single_dipole_pattern():
    scene = _np_scene()
    resp = ResponseAmplitudes(x_cav=1.0, x_mat=0.0, d_cav=1.0, d_mat=0.0)
    pts = [(0.0, 0.0, 6.0), (0.0, 0.0, 12.0), (0.0, 6.0, 0.0)]
    fields = quasistatic_field_arrays(scene, resp, pts)
    axial_1, axial_2, equatorial = fields.E_cav
    # on the dipole axis: E = 2 d / r^3 along the dipole
    assert axial_1[2] == pytest.approx(2.0 / 6.0**3, rel=1e-12)
    # r -> 2r falls off eightfold
    assert abs(axial_1[2]) == pytest.approx(8.0 * abs(axial_2[2]), rel=1e-12)
    # equatorial field is antiparallel and half as strong
    assert equatorial[2] == pytest.approx(-1.0 / 6.0**3, rel=1e-12)
    assert np.all(fields.E_mat[0] == 0.0)


def test_quasistatic_superposition_and_exclusions():
    scene = _np_scene()
    resp = ResponseAmplitudes(x_cav=1.0, x_mat=1.0, d_cav=2.0 + 1.0j, d_mat=-0.5)
    pts = [
        np.array([4.0, 0.0, 0.0]),   # inside the nanoparticle
        np.array([10.05, 0.0, 0.0]),  # inside the emitter core
        np.array([0.0, 0.0, 8.0]),   # free point
    ]
    fields = quasistatic_field_arrays(scene, resp, pts)
    assert fields.excluded.tolist() == [True, True, False]
    assert np.all(fields.E_total[:2] == 0.0)
    assert np.allclose(fields.E_total[2], fields.E_cav[2] + fields.E_mat[2], atol=1e-15)
    assert np.any(fields.E_mat[2] != 0.0)


# ---------------------------------------------------------------------------
# scene validation


def test_box_scene_validation():
    with pytest.raises(PolaritonError, match="outside the box"):
        BoxCavityScene(
            L=(20.0, 20.0, 20.0),
            V_eff=1.0e6,
            omega_cav=3.0,
            r_mat=np.array([11.0, 0.0, 0.0]),
            n_d=_Z,
            f_mat=_F_MAT,
            omega_mat=3.0,
        )
    with pytest.raises(PolaritonError):
        BoxCavityScene(
            L=(20.0, -20.0, 20.0),
            V_eff=1.0e6,
            omega_cav=3.0,
            r_mat=np.zeros(3),
            n_d=_Z,
            f_mat=_F_MAT,
            omega_mat=3.0,
        )
    with pytest.raises(PolaritonError):
        BoxCavityScene(
            L=(20.0, 20.0, 20.0),
            V_eff=1.0e6,
            omega_cav=3.0,
            r_mat=np.zeros(3),
            n_d=np.array([1.0, 1.0, 0.0]),  # not normalized
            f_mat=_F_MAT,
            omega_mat=3.0,
        )


def test_nanoparticle_scene_validation():
    with pytest.raises(PolaritonError, match="outside the nanoparticle"):
        NanoparticleScene(
            R_cav=5.0,
            r_cav=np.zeros(3),
            r_mat=np.array([4.0, 0.0, 0.0]),
            n_dcav=_Z,
            n_dmat=_Z,
        )
    with pytest.raises(PolaritonError):
        NanoparticleScene(
            R_cav=5.0,
            r_cav=np.zeros(3),
            r_mat=np.array([10.0, 0.0, 0.0]),
            n_dcav=_Z,
            n_dmat=np.array([1.0, 1.0, 0.0]),  # not normalized
        )
