"""Steady-state response of the coupled models to a monochromatic drive.

``driven_response`` solves an SpC or MoC model, whichever ``model.variant``
names, under a drive at one frequency or a grid of them.

Losses enter through complex bare frequencies: every occurrence of a bare
frequency in the frequency-domain system — the diagonal ``omega_a^2`` terms
and the ``sqrt(omega_cav omega_mat)`` normalization of the amplitude
coupling — is evaluated at ``omega_a - i rate_a / 2``.  A lone lossy
oscillator then responds with ``alpha(omega) = f / ((omega_0 - i kappa/2)^2
- omega^2)`` (reduced oscillator strengths in nm^3 eV^2, alpha in nm^3),
and the coupled-dipole solver at the bottom of this module carries the same
substitution so the two descriptions of a dipole pair remain exactly
equivalent, losses included.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import PoleError, PolaritonError
from .models import CoupledModel, ModelVariant, _system
from .units import (
    UNITS,
    _raise_first_bad,
    _require_finite,
    _require_nonnegative,
    _require_positive,
    _separation,
    _unit_vector,
    angular_factor,
)

__all__ = [
    "DriveSpec",
    "ResponseAmplitudes",
    "driven_response",
    "scattering_cross_section",
    "polarizability_oracle",
]


@dataclass(frozen=True)
class DriveSpec:
    """Monochromatic drive of amplitude ``E_inc`` at frequency ``omega``.

    ``f_cav`` and ``f_mat`` are the reduced oscillator strengths of the two
    constituents.  The drive forces ``F_alpha = sqrt(f_alpha) |E_inc|`` are
    derived quantities (real, in phase), never stored.  ``omega`` may be an
    array of drive frequencies; the solvers then return arrays over it.
    """

    E_inc: float
    omega: float
    f_cav: float
    f_mat: float

    def __post_init__(self):
        _require_finite("E_inc", self.E_inc)
        _require_positive("omega", self.omega)
        _require_nonnegative("f_cav", self.f_cav)
        _require_nonnegative("f_mat", self.f_mat)

    @property
    def F_cav(self) -> float:
        return math.sqrt(self.f_cav) * abs(self.E_inc)

    @property
    def F_mat(self) -> float:
        return math.sqrt(self.f_mat) * abs(self.E_inc)


@dataclass(frozen=True)
class ResponseAmplitudes:
    """Complex steady-state amplitudes; arrays when the drive frequency was."""

    x_cav: complex
    x_mat: complex
    d_cav: complex
    d_mat: complex


def driven_response(model: CoupledModel, drive: DriveSpec) -> ResponseAmplitudes:
    """Steady state of an SpC or MoC model at every drive frequency.

    Cramer's rule on the frequency-domain system, dividing by the same
    determinant whose near-vanishing (a drive frequency on an undamped
    hybrid mode) raises :class:`PoleError` first.  For a 2x2 system the
    closed form is forward stable and needs no LU factorization.
    """
    if model.variant not in (ModelVariant.SPC, ModelVariant.MOC):
        raise PolaritonError(f"driven_response needs an SpC or MoC model, got {model.variant.value}")
    omega = np.asarray(drive.omega, dtype=float)
    m00, m01, m10, m11 = _system(model.variant, model.pair.complex_cav, model.pair.complex_mat, model.g, omega)
    det = m00 * m11 - m01 * m10
    scale = np.sqrt(
        (np.abs(m00) ** 2 + np.abs(m01) ** 2) * (np.abs(m10) ** 2 + np.abs(m11) ** 2)
    )
    _raise_first_bad(
        np.abs(det) <= 1e-12 * np.maximum(scale, np.finfo(float).tiny),
        PoleError,
        lambda i, where: "driven response diverges: drive frequency "
        f"{float(omega.flat[i])!r} eV{where} sits on an undamped hybrid mode",
    )
    x_cav = (m11 * drive.F_cav - m01 * drive.F_mat) / det
    x_mat = (m00 * drive.F_mat - m10 * drive.F_cav) / det
    if omega.ndim == 0:
        x_cav, x_mat = complex(x_cav), complex(x_mat)
    return ResponseAmplitudes(
        x_cav=x_cav,
        x_mat=x_mat,
        d_cav=math.sqrt(drive.f_cav) * x_cav,
        d_mat=math.sqrt(drive.f_mat) * x_mat,
    )


def scattering_cross_section(
    resp: ResponseAmplitudes,
    n_dcav,
    n_dmat,
    E_inc: float,
    omega,
):
    """Dipole-radiation scattering cross section in nm^2.

    The two induced dipoles add vectorially along their orientation axes; the
    cross section is ``(8 pi / 3) (omega / hbar c)^4 |d_tot / E_inc|^2``.
    Array-valued responses and frequencies give an array of cross sections.
    """
    _require_positive("E_inc", E_inc)
    omega = _require_positive("omega", omega)
    nc = _unit_vector("n_dcav", n_dcav)
    nm_ = _unit_vector("n_dmat", n_dmat)
    total = np.multiply.outer(resp.d_cav, nc) + np.multiply.outer(resp.d_mat, nm_)
    k = omega / UNITS.hbar_c
    sigma = (8.0 * math.pi / 3.0) * k**4 * np.sum(np.abs(total / E_inc) ** 2, axis=-1)
    return float(sigma) if sigma.ndim == 0 else sigma


def polarizability_oracle(
    f_cav: float,
    f_mat: float,
    omega_cav: float,
    omega_mat: float,
    kappa: float,
    gamma: float,
    r_cav,
    r_mat,
    n_dcav,
    n_dmat,
    E_inc: float,
    omega,
) -> ResponseAmplitudes:
    """Coupled-dipole steady state built only from Lorentzian polarizabilities.

    Each constituent is a point polarizability ``f / ((w0 - i rate/2)^2 -
    w^2)`` at its own position; the two interact through the quasistatic
    dipole-dipole kernel and are both driven by the incident field along
    their axes.  The kernel inherits the module's complex-frequency loss
    convention through the ``sqrt(omega_cav omega_mat)`` normalization it
    carries in the coupled-oscillator picture (for lossless constituents it
    reduces to the bare geometric kernel).  This shares no code with the
    model solvers and serves as an independent check on ``driven_response``.
    It keeps the LAPACK LU solve on purpose: ``driven_response`` uses
    Cramer's rule, so the cross-check compares two solve algorithms rather
    than two calls of one routine.  An array of drive frequencies gives
    array-valued amplitudes.
    """
    for name, value in (("f_cav", f_cav), ("f_mat", f_mat), ("omega_cav", omega_cav), ("omega_mat", omega_mat)):
        _require_positive(name, value)
    omega = _require_positive("omega", omega)
    _require_nonnegative("kappa", kappa)
    _require_nonnegative("gamma", gamma)
    _require_finite("E_inc", E_inc)
    dist, axis = _separation("r_cav", r_cav, "r_mat", r_mat)
    nc = _unit_vector("n_dcav", n_dcav)
    nm_ = _unit_vector("n_dmat", n_dmat)
    wc = omega_cav - 0.5j * kappa
    wm = omega_mat - 0.5j * gamma
    # field of dipole 2 projected on the axis of dipole 1: -(angular factor)/r^3,
    # dressed by the loss convention of the sqrt(w_cav w_mat) coupling factor
    dressing = cmath.sqrt(wc * wm) / math.sqrt(omega_cav * omega_mat)
    coupling_kernel = -angular_factor(nc, nm_, axis) / dist**3 * dressing
    matrix = np.empty(omega.shape + (2, 2), dtype=complex)
    matrix[..., 0, 0] = (wc * wc - omega**2) / f_cav
    matrix[..., 0, 1] = -coupling_kernel
    matrix[..., 1, 0] = -coupling_kernel
    matrix[..., 1, 1] = (wm * wm - omega**2) / f_mat
    det = matrix[..., 0, 0] * matrix[..., 1, 1] - matrix[..., 0, 1] * matrix[..., 1, 0]
    scale = np.abs(matrix[..., 0, 0] * matrix[..., 1, 1]) + np.abs(matrix[..., 0, 1] * matrix[..., 1, 0])
    _raise_first_bad(
        np.abs(det) <= 1e-12 * np.maximum(scale, np.finfo(float).tiny),
        PoleError,
        lambda i, where: "coupled-dipole system is singular at drive frequency "
        f"{float(omega.flat[i])!r} eV{where}",
    )
    rhs = np.full(omega.shape + (2, 1), abs(E_inc), dtype=complex)
    d = np.linalg.solve(matrix, rhs)[..., 0]
    d_cav, d_mat = d[..., 0], d[..., 1]
    if omega.ndim == 0:
        d_cav, d_mat = complex(d_cav), complex(d_mat)
    return ResponseAmplitudes(
        x_cav=d_cav / math.sqrt(f_cav),
        x_mat=d_mat / math.sqrt(f_mat),
        d_cav=d_cav,
        d_mat=d_mat,
    )
