"""Spatial electric-field maps for the two single-emitter scenes.

The dielectric-box scene decomposes the hybrid-mode field into a cavity-mode
part (the box mode profile, polarized along z) and a matter part (the static
dipole pattern of the emitter); the nanoparticle scene is a two-dipole
quasistatic superposition driven externally.  Field units are arbitrary but
consistent within a map; the published-style normalization fixes the upper
branch's cavity term to a maximum absolute value of 1 over the sampled
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import PolaritonError
from .models import ModelVariant, branch_frequencies, mode_ratio
from .units import UNITS, OscillatorStrength, _unit_vector

__all__ = [
    "NEAR_FIELD_CALIBRATION",
    "BoxCavityScene",
    "NanoparticleScene",
    "FieldSample",
    "FieldArrays",
    "mode_profile_box",
    "hybrid_field_map_dielectric",
    "dielectric_field_arrays",
    "contribution_fractions",
    "quasistatic_field_map",
    "quasistatic_field_arrays",
]

# Relative weight of the emitter's near-field term against the cavity-mode
# term.  The two terms carry different natural normalizations (a mode profile
# over V_eff versus a bare r^-3 dipole pattern); this constant calibrates the
# dipole term so the equal-weight distance of the two contributions lands
# where the reference fraction data puts it (~10.5 nm for the standard box).
NEAR_FIELD_CALIBRATION = 2.0 * math.pi


def _as_vec(value, name: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise PolaritonError(f"{name} must be a finite 3-vector, got {value!r}")
    return vec


def _reduced_strength(f, units=UNITS) -> float:
    if isinstance(f, OscillatorStrength):
        return f.reduced(units)
    return OscillatorStrength(float(f)).reduced(units)


@dataclass(frozen=True)
class BoxCavityScene:
    """Single emitter inside a closed rectangular cavity.

    ``V_eff`` is an independent input (nm^3), never derived from ``L``; the
    fundamental mode is polarized along z with the in-plane profile of
    :func:`mode_profile_box`.  Box coordinates are centered: the walls sit at
    +/- L/2 on each axis.  ``omega_mat`` may be a 1-D array (a detuning
    sweep), which :func:`contribution_fractions` evaluates at once; field
    maps need a single value.
    """

    L: tuple
    V_eff: float
    omega_cav: float
    r_mat: np.ndarray
    n_d: np.ndarray
    f_mat: object
    omega_mat: float

    def __post_init__(self):
        dims = tuple(float(v) for v in self.L)
        if len(dims) != 3 or any(not (math.isfinite(v) and v > 0) for v in dims):
            raise PolaritonError(f"box dimensions must be three positive lengths, got {self.L!r}")
        object.__setattr__(self, "L", dims)
        if not (math.isfinite(self.V_eff) and self.V_eff > 0):
            raise PolaritonError(f"V_eff must be positive, got {self.V_eff}")
        if not (math.isfinite(self.omega_cav) and self.omega_cav > 0):
            raise PolaritonError(f"omega_cav must be positive, got {self.omega_cav}")
        omega_mat = np.asarray(self.omega_mat, dtype=float)
        if omega_mat.ndim > 1 or not np.all(np.isfinite(omega_mat) & (omega_mat > 0)):
            raise PolaritonError(f"omega_mat must be positive, got {self.omega_mat}")
        object.__setattr__(self, "r_mat", _as_vec(self.r_mat, "r_mat"))
        object.__setattr__(self, "n_d", _unit_vector("n_d", self.n_d))
        if any(abs(self.r_mat[i]) >= dims[i] / 2 for i in range(3)):
            raise PolaritonError(f"emitter at {self.r_mat} lies outside the box interior")
        _reduced_strength(self.f_mat)  # validates non-negativity

    @property
    def f_mat_reduced(self) -> float:
        return _reduced_strength(self.f_mat)


@dataclass(frozen=True)
class NanoparticleScene:
    """Spherical nanoparticle with a nearby point emitter (quasistatic)."""

    R_cav: float
    r_cav: np.ndarray
    r_mat: np.ndarray
    n_dcav: np.ndarray
    n_dmat: np.ndarray
    f_cav: object
    f_mat: object
    omega_cav: float
    omega_mat: float
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.R_cav) and self.R_cav > 0):
            raise PolaritonError(f"R_cav must be positive, got {self.R_cav}")
        object.__setattr__(self, "r_cav", _as_vec(self.r_cav, "r_cav"))
        object.__setattr__(self, "r_mat", _as_vec(self.r_mat, "r_mat"))
        object.__setattr__(self, "n_dcav", _unit_vector("n_dcav", self.n_dcav))
        object.__setattr__(self, "n_dmat", _unit_vector("n_dmat", self.n_dmat))
        if not (math.isfinite(self.omega_cav) and self.omega_cav > 0):
            raise PolaritonError(f"omega_cav must be positive, got {self.omega_cav}")
        if not (math.isfinite(self.omega_mat) and self.omega_mat > 0):
            raise PolaritonError(f"omega_mat must be positive, got {self.omega_mat}")
        if self.kappa < 0 or self.gamma < 0:
            raise PolaritonError("decay rates must be >= 0")
        if np.linalg.norm(self.r_mat - self.r_cav) <= self.R_cav:
            raise PolaritonError("emitter must sit outside the nanoparticle")
        _reduced_strength(self.f_cav)
        _reduced_strength(self.f_mat)


@dataclass(frozen=True)
class FieldSample:
    position: np.ndarray
    E_total: np.ndarray
    E_cav: np.ndarray
    E_mat: np.ndarray
    excluded: bool = False


class FieldArrays(NamedTuple):
    """A field map over N positions: (N, 3) field arrays and an (N,) mask.

    Excluded positions hold zero fields.
    """

    E_total: np.ndarray
    E_cav: np.ndarray
    E_mat: np.ndarray
    excluded: np.ndarray


def _positions(positions) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.size == 0:
        pos = pos.reshape(0, 3)
    if pos.ndim != 2 or pos.shape[1] != 3 or not np.all(np.isfinite(pos)):
        raise PolaritonError(f"positions must be finite 3-vectors, got an array of shape {pos.shape}")
    return pos


def _box_profile(scene: BoxCavityScene, pos: np.ndarray) -> np.ndarray:
    """cos(pi x / L_x) cos(pi y / L_y) at each row of ``pos``."""
    lx, ly, _ = scene.L
    outside = np.flatnonzero(np.any(np.abs(pos) > np.asarray(scene.L) / 2, axis=1))
    if outside.size:
        i = int(outside[0])
        raise PolaritonError(f"position {pos[i]} (row {i}) lies outside the box")
    return np.cos(math.pi * pos[:, 0] / lx) * np.cos(math.pi * pos[:, 1] / ly)


def mode_profile_box(scene: BoxCavityScene, r) -> float:
    """Normalized in-plane mode profile cos(pi x / L_x) cos(pi y / L_y).

    Equals 1 at the box center and vanishes on the x and y walls; constant
    along z (fundamental mode with no z variation).
    """
    return float(_box_profile(scene, _as_vec(r, "r")[None, :])[0])


def _dipole_pattern(n: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Static dipole pattern (3 (n.rhat) rhat - n) / r^3 of a unit dipole, per row of ``rel``."""
    dist = np.linalg.norm(rel, axis=-1, keepdims=True)
    rhat = rel / dist
    return (3.0 * (rhat @ n)[:, None] * rhat - n) / dist**3


def _check_branch(branch: int) -> None:
    if branch not in (+1, -1):
        raise PolaritonError(f"branch must be +1 or -1, got {branch!r}")


def _branch_amplitudes(scene: BoxCavityScene, g: float, branch: int):
    """Cavity-term prefactors of one branch for unit matter amplitude.

    Returns ``(cav, cav_upper, matter, anchor)``, each shaped like
    ``scene.omega_mat``: ``cav`` times the box profile is the branch's cavity
    field (along z), ``cav_upper`` the same for the upper branch (the
    normalization anchor), ``matter`` whether the branch carries the
    emitter's dipole term, and ``anchor`` the branch's amplitude relative to
    the normalized upper branch under the cross-amplitude convention.  With
    ``g = 0`` the cavity-like branch is a pure cavity mode and the other a
    pure matter mode; ``cav_upper`` and ``anchor`` are then None.
    """
    omega_cav = scene.omega_cav
    omega_mat = np.asarray(scene.omega_mat, dtype=float)
    cav_unit = math.sqrt(4.0 * math.pi / scene.V_eff)
    if g == 0.0:
        cavity_like = np.where(omega_cav >= omega_mat, +1, -1)
        pick = np.maximum if branch == +1 else np.minimum
        matter = cavity_like != branch
        cav = np.where(matter, 0.0, pick(omega_cav, omega_mat) * cav_unit)
        return cav, None, matter, None
    if g < 0:
        raise PolaritonError(f"MoC coupling must be >= 0, got {g}")
    plus, minus = branch_frequencies(ModelVariant.MOC, omega_cav, omega_mat, g)
    if np.any(np.isnan(minus)):
        raise PolaritonError("branch eigenfrequencies must be real for a field map")
    # realified amplitude ratio: x_cav/x_mat is purely imaginary for this
    # model; the plotted (real) cavity field carries its imaginary part
    rho_plus = mode_ratio(ModelVariant.MOC, omega_cav, omega_mat, g, plus).imag
    if branch == +1:
        omega_b, rho_b, anchor = plus, rho_plus, 1.0
    else:
        omega_b = minus
        rho_b = mode_ratio(ModelVariant.MOC, omega_cav, omega_mat, g, minus).imag
        anchor = np.sqrt(omega_cav / omega_mat) * rho_plus
    matter = np.ones(omega_mat.shape, dtype=bool)
    return omega_b * cav_unit * rho_b, plus * cav_unit * rho_plus, matter, anchor


def dielectric_field_arrays(
    scene: BoxCavityScene,
    g: float,
    branch: int,
    positions,
    core_radius: float = 0.1,
) -> FieldArrays:
    """Array form of :func:`hybrid_field_map_dielectric` over (N, 3) positions."""
    _check_branch(branch)
    if np.ndim(scene.omega_mat):
        raise PolaritonError("a field map needs a single omega_mat")
    pos = _positions(positions)
    xi = _box_profile(scene, pos)
    rel = pos - scene.r_mat
    excluded = np.linalg.norm(rel, axis=1) <= core_radius
    keep = ~excluded
    cav, cav_upper, matter, anchor = _branch_amplitudes(scene, g, branch)
    zhat = np.array([0.0, 0.0, 1.0])
    e_cav = (cav * xi[keep])[:, None] * zhat
    if matter:
        f_red = scene.f_mat_reduced
        e_mat = NEAR_FIELD_CALIBRATION * math.sqrt(f_red) * _dipole_pattern(scene.n_d, rel[keep])
    else:
        e_mat = np.zeros_like(e_cav)
    if g == 0.0:
        # normalize whichever single term is present to peak 1
        peak = float(np.max(np.abs(e_cav + e_mat), initial=0.0))
        if peak == 0.0:
            raise PolaritonError("fields vanish at every supplied position; cannot normalize")
        scale = 1.0 / peak
    else:
        upper_cav_peak = float(np.max(np.abs(cav_upper * xi[keep]), initial=0.0))
        if upper_cav_peak == 0.0:
            raise PolaritonError(
                "upper-branch cavity term vanishes at every supplied position; cannot normalize"
            )
        scale = anchor * (1.0 / upper_cav_peak)
    out_cav = np.zeros(pos.shape)
    out_mat = np.zeros(pos.shape)
    out_cav[keep] = scale * e_cav
    out_mat[keep] = scale * e_mat
    return FieldArrays(out_cav + out_mat, out_cav, out_mat, excluded)


def hybrid_field_map_dielectric(
    scene: BoxCavityScene,
    g: float,
    branch: int,
    positions,
    core_radius: float = 0.1,
) -> list[FieldSample]:
    """Real-valued field decomposition of one hybrid branch over positions.

    The overall amplitude is fixed by the upper branch: its cavity term has a
    maximum absolute value of 1 over the included positions, and the two
    branches share the published cross-amplitude convention
    ``sqrt(omega_cav) x_cav(upper) = sqrt(omega_mat) x_mat(lower)``, so the
    lower-branch map is directly comparable.  The matter amplitude is taken
    real positive on both branches; the branch sign structure lives entirely
    in the cavity term.  Positions closer to the emitter than ``core_radius``
    (nm) come back zeroed with ``excluded=True``.  With ``g = 0`` the
    requested branch is a pure cavity or pure matter mode and is normalized
    to a peak of 1 on its own.
    """
    fields = dielectric_field_arrays(scene, g, branch, positions, core_radius)
    return _samples(positions, fields)


def contribution_fractions(
    scene: BoxCavityScene, g: float, branch: int, position, core_radius: float = 0.1
):
    """Normalized cavity/matter weights (sigma_cav, sigma_mat) at one point.

    The overall mode amplitude cancels in the ratio, so no normalization
    anchor is involved; the two weights sum to 1 exactly.  A scene whose
    ``omega_mat`` is an array gives a pair of arrays over it.
    """
    _check_branch(branch)
    vec = _as_vec(position, "position")
    xi = _box_profile(scene, vec[None, :])[0]
    rel = (vec - scene.r_mat)[None, :]
    if np.linalg.norm(rel) <= core_radius:
        raise PolaritonError(f"position {vec} is inside the emitter core; fractions undefined")
    cav, _, matter, _ = _branch_amplitudes(scene, g, branch)
    e_mat = NEAR_FIELD_CALIBRATION * math.sqrt(scene.f_mat_reduced) * _dipole_pattern(scene.n_d, rel)[0]
    cav_sq = np.abs(cav * xi) ** 2
    total = cav_sq + np.where(matter, float(np.sum(np.abs(e_mat) ** 2)), 0.0)
    vanish = np.flatnonzero(total == 0.0)
    if vanish.size:
        i = int(vanish[0])
        where = f" at omega_mat = {np.ravel(scene.omega_mat)[i]} (row {i})" if np.ndim(total) else ""
        raise PolaritonError(f"both field contributions vanish at {vec}{where}; fractions undefined")
    sigma_cav = cav_sq / total
    if np.ndim(sigma_cav) == 0:
        sigma_cav = float(sigma_cav)
    return sigma_cav, 1.0 - sigma_cav


def quasistatic_field_arrays(
    scene: NanoparticleScene,
    resp,
    positions,
    core_radius: float = 0.1,
) -> FieldArrays:
    """Array form of :func:`quasistatic_field_map` over (N, 3) positions."""
    pos = _positions(positions)
    rel_cav = pos - scene.r_cav
    rel_mat = pos - scene.r_mat
    excluded = (np.linalg.norm(rel_cav, axis=1) <= scene.R_cav) | (
        np.linalg.norm(rel_mat, axis=1) <= core_radius
    )
    keep = ~excluded
    e_cav = np.zeros(pos.shape, dtype=complex)
    e_mat = np.zeros(pos.shape, dtype=complex)
    e_cav[keep] = resp.d_cav * _dipole_pattern(scene.n_dcav, rel_cav[keep])
    e_mat[keep] = resp.d_mat * _dipole_pattern(scene.n_dmat, rel_mat[keep])
    return FieldArrays(e_cav + e_mat, e_cav, e_mat, excluded)


def quasistatic_field_map(
    scene: NanoparticleScene,
    resp,
    positions,
    core_radius: float = 0.1,
) -> list[FieldSample]:
    """Superposed dipole fields of the driven nanoparticle-emitter pair.

    ``resp`` supplies the complex dipole amplitudes (``d_cav``, ``d_mat``);
    each radiates the quasistatic pattern from its own position.  Points
    inside the nanoparticle or within ``core_radius`` of the emitter are
    zeroed with ``excluded=True``.
    """
    return _samples(positions, quasistatic_field_arrays(scene, resp, positions, core_radius))


def _samples(positions, fields: FieldArrays) -> list[FieldSample]:
    return [
        FieldSample(pos, e_tot, e_cav, e_mat, excluded=bool(excl))
        for pos, e_tot, e_cav, e_mat, excl in zip(_positions(positions), *fields)
    ]
