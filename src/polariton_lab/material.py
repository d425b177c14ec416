"""Bulk permittivity and polariton dispersion for the two coupling families.

The velocity-coupled oscillator gives the familiar Lorentz permittivity with
a negative-epsilon (reststrahlen) band between Omega_mat and the
longitudinal frequency sqrt(Omega_mat^2 + 4 G^2); the amplitude-coupled
oscillator instead produces a strictly nonnegative permittivity with a
low-frequency divergence.  ``bulk_dispersion`` evaluates the photon-phonon
branches either directly from the velocity model or through two dressed
amplitude parameterizations that reproduce it identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import PoleError, PolaritonError
from .models import _amplitude_modes_sq, _velocity_modes_sq
from .units import UNITS, _require_nonnegative, _require_positive

__all__ = [
    "PermittivityVariant",
    "PermittivityModel",
    "DispersionBranch",
    "permittivity_mc",
    "permittivity_spc",
    "reststrahlen_band",
    "reststrahlen_fit",
    "bulk_dispersion",
    "coupling_profiles",
]


class PermittivityVariant(Enum):
    MOC = "MoC"
    SPC = "SpC"
    POLAR_LORENTZ = "PolarLorentz"


@dataclass(frozen=True)
class PermittivityModel:
    """Bulk medium of resonance frequency Omega_mat and coupling density G.

    ``epsilon_inf`` is the background permittivity absorbed into a fitted
    Lorentz model (pure microscopic variants keep the default 1).
    """

    Omega_mat: float
    G: float
    epsilon_inf: float = 1.0
    variant: PermittivityVariant = PermittivityVariant.MOC

    def __post_init__(self):
        _require_positive("Omega_mat", self.Omega_mat)
        _require_nonnegative("G", self.G)
        if not (math.isfinite(self.epsilon_inf) and self.epsilon_inf >= 1.0):
            raise PolaritonError(f"epsilon_inf must be >= 1, got {self.epsilon_inf}")
        if not isinstance(self.variant, PermittivityVariant):
            raise PolaritonError(f"variant must be a PermittivityVariant, got {self.variant!r}")


def _omega_array(omega, allow_zero: bool) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise PolaritonError("omega must be finite")
    if np.any(w < 0.0):
        raise PolaritonError("omega must be nonnegative")
    if not allow_zero and np.any(w == 0.0):
        raise PoleError("permittivity diverges at omega = 0 for the amplitude-coupled medium")
    return w


def permittivity_mc(model: PermittivityModel, omega):
    """Lorentz permittivity eps_inf (1 + 4 G^2 / (Omega_mat^2 - omega^2)).

    Negative exactly on the reststrahlen band; finite at omega = 0; the pole
    at omega = Omega_mat is signaled rather than returned as inf.
    """
    if model.variant is PermittivityVariant.SPC:
        raise PolaritonError("permittivity_mc requires a velocity-form variant, got SpC")
    w = _omega_array(omega, allow_zero=True)
    if np.any(w == model.Omega_mat):
        raise PoleError(f"permittivity pole at omega = Omega_mat = {model.Omega_mat}")
    eps = model.epsilon_inf * (1.0 + 4.0 * model.G**2 / (model.Omega_mat**2 - w**2))
    return eps if eps.ndim else float(eps)


def permittivity_spc(model: PermittivityModel, omega):
    """Amplitude-coupled permittivity (t + sqrt(1 + t^2))^2 with
    t = 2 G^2 Omega_mat / (omega (Omega_mat^2 - omega^2)).

    Strictly nonnegative everywhere it is defined, tends to 1 from above as
    omega -> infinity, and grows without bound as omega -> 0 (signaled).
    """
    if model.variant is not PermittivityVariant.SPC:
        raise PolaritonError(
            f"permittivity_spc requires the SpC variant, got {model.variant.value}"
        )
    w = _omega_array(omega, allow_zero=False)
    if np.any(w == model.Omega_mat):
        raise PoleError(f"permittivity pole at omega = Omega_mat = {model.Omega_mat}")
    t = 2.0 * model.G**2 * model.Omega_mat / (w * (model.Omega_mat**2 - w**2))
    eps = (t + np.sqrt(1.0 + t * t)) ** 2
    return eps if eps.ndim else float(eps)


def reststrahlen_band(model: PermittivityModel) -> tuple[float, float]:
    """(Omega_mat, sqrt(Omega_mat^2 + 4 G^2)): the negative-epsilon window.

    Only the velocity-form variants have one; the amplitude-coupled medium's
    permittivity never goes negative, so SpC models are rejected.
    """
    if model.variant is PermittivityVariant.SPC:
        raise PolaritonError("the amplitude-coupled medium has no reststrahlen band")
    return model.Omega_mat, math.sqrt(model.Omega_mat**2 + 4.0 * model.G**2)


def reststrahlen_fit(omega_to: float, omega_lo: float, epsilon_inf: float = 1.0) -> PermittivityModel:
    """Fit a Lorentz medium to measured transverse/longitudinal edges.

    Inverts the band formula: G = sqrt(omega_LO^2 - omega_TO^2) / 2, so the
    returned model's ``reststrahlen_band`` reproduces the inputs exactly.
    """
    _require_positive("omega_TO", omega_to)
    if not math.isfinite(omega_lo) or omega_lo < omega_to:
        raise PolaritonError(
            f"omega_LO must be >= omega_TO, got omega_LO={omega_lo}, omega_TO={omega_to}"
        )
    g_fit = 0.5 * math.sqrt(omega_lo**2 - omega_to**2)
    return PermittivityModel(
        Omega_mat=omega_to,
        G=g_fit,
        epsilon_inf=epsilon_inf,
        variant=PermittivityVariant.POLAR_LORENTZ,
    )


@dataclass(frozen=True)
class DispersionBranch:
    k: np.ndarray
    omega: np.ndarray
    branch: str
    model: str

    def __post_init__(self):
        if self.branch not in ("lower", "upper"):
            raise PolaritonError(f"branch must be 'lower' or 'upper', got {self.branch!r}")
        if self.model not in _DISPERSION_MODELS:
            raise PolaritonError(f"model must be one of {_DISPERSION_MODELS}, got {self.model!r}")


_DISPERSION_MODELS = ("MoC", "A1", "A2")


def _dressed_dispersion_sq(model: str, omega_k: np.ndarray, omega_to: float, g_coupling: float):
    """(s_minus, s_plus) arrays of squared branch frequencies at each k."""
    if model == "MoC":
        s_plus, s_minus = _velocity_modes_sq(omega_k, omega_to, g_coupling)
    else:
        omega_lo = math.sqrt(omega_to**2 + 4.0 * g_coupling**2)
        if model == "A1":
            cav = np.sqrt(omega_k**2 + 4.0 * g_coupling**2)
            g_arr = -g_coupling * np.sqrt(omega_to / cav)
            s_plus, s_minus = _amplitude_modes_sq(cav, omega_to, g_arr)
        elif model == "A2":
            g_arr = g_coupling * np.sqrt(omega_k / omega_lo)
            s_plus, s_minus = _amplitude_modes_sq(omega_k, omega_lo, g_arr)
        else:
            raise PolaritonError(
                f"unknown dispersion model {model!r}; expected one of {_DISPERSION_MODELS}"
            )
    # At k = 0 the lower branch is exactly 0 and the upper exactly omega_LO
    # in every parameterization; evaluating the closed forms there runs into
    # catastrophic cancellation (ab ~ c to machine precision), so pin the
    # limit instead of computing it.
    at_zero = np.atleast_1d(omega_k) == 0.0
    if np.any(at_zero):
        s_minus = np.where(at_zero, 0.0, np.atleast_1d(s_minus))
        s_plus = np.where(at_zero, omega_to**2 + 4.0 * g_coupling**2, np.atleast_1d(s_plus))
    return s_minus, s_plus


def bulk_dispersion(
    model: str,
    omega_to: float,
    g_coupling: float,
    k_grid,
    epsilon_inf: float = 1.0,
) -> tuple[DispersionBranch, DispersionBranch]:
    """Photon-phonon polariton branches over a wavevector grid.

    The photon line is omega_k = hbar c k / sqrt(epsilon_inf).  "MoC"
    couples it to the bare resonance with the velocity form; "A1" and "A2"
    are dressed amplitude-form parameterizations of the same physics (A1
    dresses the photon, A2 the resonance up to omega_LO) and agree with
    "MoC" to numerical precision, including the exact k=0 limits 0 and
    omega_LO.
    """
    _require_positive("omega_TO", omega_to)
    _require_nonnegative("coupling", g_coupling)
    if not (math.isfinite(epsilon_inf) and epsilon_inf >= 1.0):
        raise PolaritonError(f"epsilon_inf must be >= 1, got {epsilon_inf}")
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size == 0 or not np.all(np.isfinite(k)) or np.any(k < 0.0):
        raise PolaritonError("k_grid must be a nonempty 1-D array of nonnegative wavevectors")
    omega_k = UNITS.hbar_c * k / math.sqrt(epsilon_inf)
    s_minus, s_plus = _dressed_dispersion_sq(model, omega_k, omega_to, g_coupling)
    # a branch squared below zero is not a propagating mode: clamp it to 0
    lower = np.sqrt(np.maximum(s_minus, 0.0))
    upper = np.sqrt(np.maximum(s_plus, 0.0))
    return (
        DispersionBranch(k=k, omega=lower, branch="lower", model=model),
        DispersionBranch(k=k, omega=upper, branch="upper", model=model),
    )


def coupling_profiles(model: str, omega_to: float, g_coupling: float, k_grid, epsilon_inf: float = 1.0):
    """Signed k-dependent coupling used by each dispersion parameterization.

    "MoC" is constant g; "A1" runs negative, approaching -g sqrt(Omega/(2g))
    in magnitude at k=0; "A2" vanishes at k=0 like sqrt(omega_k).
    """
    _require_positive("omega_TO", omega_to)
    _require_nonnegative("coupling", g_coupling)
    k = np.asarray(k_grid, dtype=float)
    if k.ndim != 1 or k.size == 0 or not np.all(np.isfinite(k)) or np.any(k < 0.0):
        raise PolaritonError("k_grid must be a nonempty 1-D array of nonnegative wavevectors")
    omega_k = UNITS.hbar_c * k / math.sqrt(epsilon_inf)
    if model == "MoC":
        return np.full_like(omega_k, g_coupling)
    if model == "A1":
        cav = np.sqrt(omega_k**2 + 4.0 * g_coupling**2)
        return -g_coupling * np.sqrt(omega_to / cav)
    if model == "A2":
        omega_lo = math.sqrt(omega_to**2 + 4.0 * g_coupling**2)
        return g_coupling * np.sqrt(omega_k / omega_lo)
    raise PolaritonError(f"unknown dispersion model {model!r}; expected one of {_DISPERSION_MODELS}")
