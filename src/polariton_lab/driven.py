"""Steady-state response of the coupled models to a monochromatic drive.

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

from .exceptions import PoleError, PolaritonError
from .models import CoupledModel, ModelVariant, frequency_domain_matrix
from .units import UNITS, UnitSystem, angular_factor, _unit_vector

__all__ = [
    "DriveSpec",
    "ResponseAmplitudes",
    "driven_spc",
    "driven_mc",
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
        if not math.isfinite(self.E_inc):
            raise PolaritonError(f"E_inc must be finite, got {self.E_inc}")
        omega = np.asarray(self.omega, dtype=float)
        if not np.all(np.isfinite(omega) & (omega > 0)):
            raise PolaritonError(f"drive frequency must be positive, got {self.omega}")
        if not (math.isfinite(self.f_cav) and self.f_cav >= 0):
            raise PolaritonError(f"f_cav must be >= 0, got {self.f_cav}")
        if not (math.isfinite(self.f_mat) and self.f_mat >= 0):
            raise PolaritonError(f"f_mat must be >= 0, got {self.f_mat}")

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


def _solve_response(model: CoupledModel, drive: DriveSpec) -> ResponseAmplitudes:
    """Steady state at every drive frequency: one stacked 2x2 solve."""
    omega = np.asarray(drive.omega, dtype=float)
    matrix = frequency_domain_matrix(model, omega)
    m00, m01 = matrix[..., 0, 0], matrix[..., 0, 1]
    m10, m11 = matrix[..., 1, 0], matrix[..., 1, 1]
    det = m00 * m11 - m01 * m10
    scale = np.sqrt(
        (np.abs(m00) ** 2 + np.abs(m01) ** 2) * (np.abs(m10) ** 2 + np.abs(m11) ** 2)
    )
    poles = np.flatnonzero(np.abs(det) <= 1e-12 * np.maximum(scale, np.finfo(float).tiny))
    if poles.size:
        i = int(poles[0])
        where = f" (grid row {i})" if omega.ndim else ""
        raise PoleError(
            "driven response diverges: drive frequency "
            f"{float(omega.flat[i])!r} eV{where} sits on an undamped hybrid mode"
        )
    rhs = np.broadcast_to(np.array([drive.F_cav, drive.F_mat], dtype=complex), matrix.shape[:-1])
    x = np.linalg.solve(matrix, rhs[..., None])[..., 0]
    x_cav, x_mat = x[..., 0], x[..., 1]
    if omega.ndim == 0:
        x_cav, x_mat = complex(x_cav), complex(x_mat)
    return ResponseAmplitudes(
        x_cav=x_cav,
        x_mat=x_mat,
        d_cav=math.sqrt(drive.f_cav) * x_cav,
        d_mat=math.sqrt(drive.f_mat) * x_mat,
    )


def driven_spc(model: CoupledModel, drive: DriveSpec) -> ResponseAmplitudes:
    """Amplitude-coupled steady state under the drive."""
    if model.variant is not ModelVariant.SPC:
        raise PolaritonError(f"driven_spc needs an SpC model, got {model.variant.value}")
    return _solve_response(model, drive)


def driven_mc(model: CoupledModel, drive: DriveSpec) -> ResponseAmplitudes:
    """Velocity-coupled steady state under the drive."""
    if model.variant is not ModelVariant.MOC:
        raise PolaritonError(f"driven_mc needs an MoC model, got {model.variant.value}")
    return _solve_response(model, drive)


def scattering_cross_section(
    resp: ResponseAmplitudes,
    n_dcav,
    n_dmat,
    E_inc: float,
    omega,
    units: UnitSystem = UNITS,
):
    """Dipole-radiation scattering cross section in nm^2.

    The two induced dipoles add vectorially along their orientation axes; the
    cross section is ``(8 pi / 3) (omega / hbar c)^4 |d_tot / E_inc|^2``.
    Array-valued responses and frequencies give an array of cross sections.
    """
    if not E_inc > 0:
        raise PolaritonError(f"E_inc must be positive, got {E_inc}")
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise PolaritonError(f"omega must be positive, got {omega.min()}")
    nc = _unit_vector("n_dcav", n_dcav)
    nm_ = _unit_vector("n_dmat", n_dmat)
    total = np.multiply.outer(resp.d_cav, nc) + np.multiply.outer(resp.d_mat, nm_)
    k = omega / units.hbar_c
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
    model solvers and serves as an independent check on ``driven_spc``.
    An array of drive frequencies gives array-valued amplitudes.
    """
    omega = np.asarray(omega, dtype=float)
    if f_cav <= 0 or f_mat <= 0:
        raise PolaritonError("oscillator strengths must be positive")
    if np.any(omega <= 0) or omega_cav <= 0 or omega_mat <= 0:
        raise PolaritonError("frequencies must be positive")
    if kappa < 0 or gamma < 0:
        raise PolaritonError("decay rates must be >= 0")
    rc = np.asarray(r_cav, dtype=float)
    rm = np.asarray(r_mat, dtype=float)
    sep = rm - rc
    dist = float(np.linalg.norm(sep))
    if dist == 0:
        raise PolaritonError("constituent positions must differ")
    axis = sep / dist
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
    singular = np.flatnonzero(np.abs(det) <= 1e-12 * np.maximum(scale, np.finfo(float).tiny))
    if singular.size:
        i = int(singular[0])
        where = f" (grid row {i})" if omega.ndim else ""
        raise PoleError(
            "coupled-dipole system is singular at drive frequency "
            f"{float(omega.flat[i])!r} eV{where}"
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
