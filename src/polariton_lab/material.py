"""Bulk permittivity and polariton dispersion for the two coupling forms.

A medium's coupling form is a :class:`ModelVariant`.  ``permittivity``
gives the MoC (velocity-coupled) Lorentz permittivity, with a
negative-epsilon (reststrahlen) band between Omega_mat and the longitudinal
frequency sqrt(Omega_mat^2 + 4 G^2), or the SpC (amplitude-coupled)
permittivity, strictly nonnegative with a low-frequency divergence.
``bulk_dispersion`` returns the photon-phonon branches as a
:class:`Dispersion`, either straight from the MoC closed form or through
the A1/A2 amplitude-form dressings of :func:`dressed_parameters`, which
reproduce it identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import PoleError, PolaritonError
from .models import ModelVariant, _amplitude_modes_sq, _velocity_modes_sq, dressed_parameters
from .units import UNITS, _require_at_least_one, _require_finite, _require_nonnegative, _require_positive

__all__ = [
    "PermittivityModel",
    "Dispersion",
    "permittivity",
    "reststrahlen_band",
    "reststrahlen_fit",
    "bulk_dispersion",
    "coupling_profiles",
]


@dataclass(frozen=True)
class PermittivityModel:
    """Bulk medium of resonance frequency Omega_mat and coupling density G.

    ``variant`` is the coupling form, ``ModelVariant.MOC`` or
    ``ModelVariant.SPC``.  ``epsilon_inf`` is the background permittivity
    absorbed into a fitted Lorentz (MoC) model; the SpC medium has no
    high-frequency screening and keeps the default 1.
    """

    Omega_mat: float
    G: float
    epsilon_inf: float = 1.0
    variant: ModelVariant = ModelVariant.MOC

    def __post_init__(self):
        _require_positive("Omega_mat", self.Omega_mat)
        _require_nonnegative("G", self.G)
        _require_at_least_one("epsilon_inf", self.epsilon_inf)
        if self.variant not in (ModelVariant.MOC, ModelVariant.SPC):
            raise PolaritonError(
                f"variant must be ModelVariant.MOC or ModelVariant.SPC, got {self.variant!r}"
            )
        if self.variant is ModelVariant.SPC and self.epsilon_inf != 1.0:
            raise PolaritonError(
                "the amplitude-coupled permittivity has no high-frequency screening; "
                f"epsilon_inf must be 1, got {self.epsilon_inf}"
            )


def permittivity(model: PermittivityModel, omega):
    """Bulk permittivity of the medium at ``omega`` (a number or an array).

    MoC: the Lorentz form eps_inf (1 + 4 G^2 / (Omega_mat^2 - omega^2)),
    negative exactly on the reststrahlen band and finite at omega = 0.
    SpC: (t + sqrt(1 + t^2))^2 with t = 2 G^2 Omega_mat / (omega
    (Omega_mat^2 - omega^2)), strictly nonnegative, tending to 1 from above
    as omega -> infinity and diverging as omega -> 0.  The poles at
    omega = Omega_mat (and omega = 0 for SpC) raise :class:`PoleError`
    rather than returning inf.
    """
    w = _require_nonnegative("omega", omega)
    amplitude = model.variant is ModelVariant.SPC
    if amplitude and np.any(w == 0.0):
        raise PoleError("permittivity diverges at omega = 0 for the amplitude-coupled medium")
    if np.any(w == model.Omega_mat):
        raise PoleError(f"permittivity pole at omega = Omega_mat = {model.Omega_mat}")
    if amplitude:
        t = 2.0 * model.G**2 * model.Omega_mat / (w * (model.Omega_mat**2 - w**2))
        # above the pole t < 0 and t + sqrt(1 + t^2) cancels; it equals
        # 1 / (|t| + sqrt(1 + t^2)), which does not
        base = np.abs(t) + np.sqrt(1.0 + t * t)
        eps = np.where(t < 0, 1.0 / base, base) ** 2
    else:
        eps = model.epsilon_inf * (1.0 + 4.0 * model.G**2 / (model.Omega_mat**2 - w**2))
    return eps if eps.ndim else float(eps)


def reststrahlen_band(model: PermittivityModel) -> tuple[float, float]:
    """(Omega_mat, sqrt(Omega_mat^2 + 4 G^2)): the negative-epsilon window.

    Only the MoC medium has one; the SpC permittivity never goes negative,
    so SpC models are rejected.
    """
    if model.variant is ModelVariant.SPC:
        raise PolaritonError("the amplitude-coupled medium has no reststrahlen band")
    return model.Omega_mat, math.sqrt(model.Omega_mat**2 + 4.0 * model.G**2)


def reststrahlen_fit(omega_to: float, omega_lo: float, epsilon_inf: float = 1.0) -> PermittivityModel:
    """Fit an MoC (Lorentz) medium to measured transverse/longitudinal edges.

    Inverts the band formula: G = sqrt(omega_LO^2 - omega_TO^2) / 2, so the
    returned model's ``reststrahlen_band`` reproduces the inputs exactly.
    """
    _require_positive("omega_TO", omega_to)
    if _require_finite("omega_LO", omega_lo) < omega_to:
        raise PolaritonError(
            f"omega_LO must be >= omega_TO, got omega_LO={omega_lo}, omega_TO={omega_to}"
        )
    g_fit = 0.5 * math.sqrt(omega_lo**2 - omega_to**2)
    return PermittivityModel(Omega_mat=omega_to, G=g_fit, epsilon_inf=epsilon_inf)


class Dispersion(NamedTuple):
    """Branch frequencies over a wavevector grid, with the cavity frequency
    (the photon line, dressed for A1) that the parameterization couples."""

    lower: np.ndarray
    upper: np.ndarray
    photon: np.ndarray


def _coupled_parameters(
    model: ModelVariant, omega_to: float, g_coupling: float, k_grid, epsilon_inf: float
):
    """Validated inputs of a dispersion parameterization, as arrays over k:
    the photon frequency omega_k and the coupled ``(omega_cav, omega_mat, g)``."""
    _require_positive("omega_TO", omega_to)
    _require_nonnegative("coupling", g_coupling)
    _require_at_least_one("epsilon_inf", epsilon_inf)
    if model not in (
        ModelVariant.MOC, ModelVariant.ALT_COULOMB_DRESSED_CAVITY, ModelVariant.ALT_DIPOLE_DRESSED_MATTER
    ):
        raise PolaritonError(f"no dispersion for {model}; expected MoC or its A1 or A2 dressing")
    k = _require_nonnegative("k_grid", k_grid)
    if k.ndim != 1 or k.size == 0:
        raise PolaritonError("k_grid must be a nonempty 1-D array of nonnegative wavevectors")
    omega_k = UNITS.hbar_c * k / math.sqrt(epsilon_inf)
    if model is ModelVariant.MOC:
        return omega_k, omega_k, omega_to, np.full_like(omega_k, g_coupling)
    return (omega_k, *dressed_parameters(model, omega_k, omega_to, g_coupling))


def bulk_dispersion(
    model: ModelVariant,
    omega_to: float,
    g_coupling: float,
    k_grid,
    epsilon_inf: float = 1.0,
) -> Dispersion:
    """Photon-phonon polariton branches over a wavevector grid.

    The photon line is omega_k = hbar c k / sqrt(epsilon_inf).
    ``ModelVariant.MOC`` couples it to the bare resonance with the velocity
    form; ``ALT_COULOMB_DRESSED_CAVITY`` (A1, dressing the photon) and
    ``ALT_DIPOLE_DRESSED_MATTER`` (A2, dressing the resonance up to
    omega_LO) are the amplitude-form dressings of :func:`dressed_parameters`
    and agree with MoC to numerical precision, including the exact k=0
    limits 0 and omega_LO.
    """
    omega_k, wc, wm, g = _coupled_parameters(model, omega_to, g_coupling, k_grid, epsilon_inf)
    modes_sq = _velocity_modes_sq if model is ModelVariant.MOC else _amplitude_modes_sq
    s_plus, s_minus = modes_sq(wc, wm, g)
    # At k = 0 the lower branch is exactly 0 and the upper exactly omega_LO
    # in every parameterization; evaluating the closed forms there runs into
    # catastrophic cancellation (ab ~ c to machine precision), so pin the
    # limit instead of computing it.
    at_zero = omega_k == 0.0
    s_minus = np.where(at_zero, 0.0, s_minus)
    s_plus = np.where(at_zero, omega_to**2 + 4.0 * g_coupling**2, s_plus)
    # a branch squared below zero is not a propagating mode: clamp it to 0
    return Dispersion(
        lower=np.sqrt(np.maximum(s_minus, 0.0)), upper=np.sqrt(np.maximum(s_plus, 0.0)), photon=wc
    )


def coupling_profiles(
    model: ModelVariant, omega_to: float, g_coupling: float, k_grid, epsilon_inf: float = 1.0
):
    """Signed k-dependent coupling used by each dispersion parameterization.

    MoC is constant g; A1 runs negative, approaching -g sqrt(Omega/(2g))
    in magnitude at k=0; A2 vanishes at k=0 like sqrt(omega_k).
    """
    _, _, _, g = _coupled_parameters(model, omega_to, g_coupling, k_grid, epsilon_inf)
    return g
