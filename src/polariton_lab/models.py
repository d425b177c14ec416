"""Two-oscillator models of hybrid light-matter modes.

Two coupling structures cover all model variants used here:

* amplitude coupling -- the coupling force is proportional to the partner's
  displacement (terms ``2 g sqrt(w_cav w_mat) x`` in the equations of motion);
* velocity coupling -- the coupling force is proportional to the partner's
  velocity (terms ``2 g x'`` with opposite signs in the two equations).

The dressed alternative variants reuse these two structures with transformed
bare frequencies and couplings, so that their spectra coincide exactly with
the model they were derived from.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import PoleError, PolaritonError
from .units import _raise_first_bad, _require_finite, _require_nonnegative, _require_positive

__all__ = [
    "ModelVariant",
    "OscillatorPair",
    "CoupledModel",
    "MinSplitting",
    "min_splitting",
    "branch_frequencies",
    "mode_ratio",
    "dressed_parameters",
    "determinant_residual",
]


class ModelVariant(enum.Enum):
    SPC = "SpC"
    MOC = "MoC"
    LINEARIZED = "Linearized"
    ALT_COULOMB_DRESSED_CAVITY = "AltCoulombDressedCavity"
    ALT_DIPOLE_DRESSED_MATTER = "AltDipoleDressedMatter"
    ALT_DIPOLE_DIPOLE_DRESSED_CAVITY = "AltDipoleDipoleDressedCavity"


# variants whose coupling term is proportional to the partner amplitude
_AMPLITUDE_FORM = frozenset(
    {ModelVariant.SPC, ModelVariant.ALT_COULOMB_DRESSED_CAVITY, ModelVariant.ALT_DIPOLE_DRESSED_MATTER}
)
# variants whose coupling term is proportional to the partner velocity
_VELOCITY_FORM = frozenset({ModelVariant.MOC, ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY})


@dataclass(frozen=True)
class OscillatorPair:
    """Bare cavity and matter oscillators, with optional decay rates.

    Losses enter every eigenvalue computation through the complex bare
    frequencies ``omega - i rate / 2``.
    """

    omega_cav: float
    omega_mat: float
    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        _require_positive("omega_cav", self.omega_cav)
        _require_positive("omega_mat", self.omega_mat)
        _require_nonnegative("kappa", self.kappa)
        _require_nonnegative("gamma", self.gamma)

    @property
    def complex_cav(self) -> complex:
        return self.omega_cav - 0.5j * self.kappa

    @property
    def complex_mat(self) -> complex:
        return self.omega_mat - 0.5j * self.gamma


@dataclass(frozen=True)
class CoupledModel:
    pair: OscillatorPair
    variant: ModelVariant
    g: float

    def __post_init__(self):
        velocity = self.variant in (ModelVariant.MOC, ModelVariant.LINEARIZED)
        (_require_nonnegative if velocity else _require_finite)(f"{self.variant.value} coupling", self.g)


class MinSplitting(NamedTuple):
    """Minimum splitting and where it sits; arrays when ``g`` was an array."""

    Omega_min: float
    omega_cav_at_min: float


def _amplitude_modes_sq(wc, wm, g):
    """Branch frequencies squared of the amplitude-coupled quartic (stable forms)."""
    a, b = wc * wc, wm * wm
    rad = (a - b) ** 2 + 16.0 * g * g * wc * wm
    root = np.sqrt(rad)
    s_plus = 0.5 * (a + b + root)
    # (a + b)^2 - rad = 4 wc wm (wc wm - 4 g^2): cancellation-free lower branch
    s_minus = 2.0 * wc * wm * (wc * wm - 4.0 * g * g) / (a + b + root)
    return s_plus, s_minus


def _velocity_modes_sq(wc, wm, g):
    """Branch frequencies squared of the velocity-coupled quartic (stable forms)."""
    a, b = wc * wc, wm * wm
    s = a + b + 4.0 * g * g
    rad = ((wc - wm) ** 2 + 4.0 * g * g) * ((wc + wm) ** 2 + 4.0 * g * g)
    root = np.sqrt(rad)
    s_plus = 0.5 * (s + root)
    s_minus = 2.0 * a * b / (s + root)  # product identity s+ s- = a b
    return s_plus, s_minus


def _system(variant: ModelVariant, omega_cav, omega_mat, g, omega) -> tuple:
    """Entries ``(m00, m01, m10, m11)`` of the 2x2 system M(omega): M @ (x_cav, x_mat) = 0 on an eigenmode.

    The arguments broadcast; each entry is a complex array of their shape, 0-d
    for scalars.  Bare frequencies may be complex (lossy, ``omega - i rate / 2``).
    """
    wc, wm, g, omega = np.broadcast_arrays(omega_cav, omega_mat, g, omega)
    if variant in _AMPLITUDE_FORM:
        cross = 2.0 * g * np.sqrt(wc * wm + 0j)
        entries = (wc * wc - omega**2, cross, cross, wm * wm - omega**2)
    elif variant in _VELOCITY_FORM:
        cross = 2.0j * omega * g
        entries = (wc * wc - omega**2, cross, -cross, wm * wm - omega**2)
    else:  # linearized: first order in omega
        entries = (wc - omega, g, g, wm - omega)
    return tuple(np.asarray(e, dtype=complex) for e in entries)


def determinant_residual(variant: ModelVariant, omega_cav, omega_mat, g, omega) -> np.ndarray:
    """Relative residual ``|det M(omega)| / max(1, max |M_ij|)^2`` over arrays.

    At an eigenfrequency the determinant vanishes, so this is a self-check of
    any branch computation; NaN rows (masked points) give NaN.
    """
    m00, m01, m10, m11 = _system(variant, omega_cav, omega_mat, g, omega)
    scale = functools.reduce(np.maximum, map(np.abs, (m00, m01, m10, m11)), 1.0)
    return np.abs(m00 * m11 - m01 * m10) / (scale * scale)


def mode_ratio(variant: ModelVariant, omega_cav, omega_mat, g, omega):
    """x_cav / x_mat on the branch with eigenfrequency ``omega``, over arrays.

    Read off the first row of the 2x2 system M(omega), so complex for every
    variant; bare frequencies may be complex (lossy).  Raises
    :class:`PoleError` where the branch frequency equals the bare cavity one.
    """
    m00, m01 = _system(variant, omega_cav, omega_mat, g, omega)[:2]
    _raise_first_bad(
        m00 == 0,
        PoleError,
        lambda i, where: "eigenvector ratio has a pole: branch frequency "
        f"{np.broadcast_to(omega, m00.shape).flat[i]} coincides with the bare cavity frequency{where}",
    )
    return -m01 / m00


def branch_frequencies(variant: ModelVariant, omega_cav, omega_mat, g):
    """Lossless branch frequencies ``(omega_plus, omega_minus)`` over arrays.

    The arguments broadcast against each other, and a scalar call gives 0-d
    arrays.  Closed forms of the quartic for each coupling form; the
    linearized (rotating-frame) model is first order in omega and valid
    outside ultrastrong coupling.  ``omega_minus`` is NaN wherever the lower
    branch is not a real frequency: below the amplitude-coupled cutoff
    ``omega_cav * omega_mat < 4 g**2``, or where the linearized lower branch
    turns negative.  NaN parameters give NaN rows.
    """
    wc, wm, g = (np.asarray(v, dtype=float) for v in (omega_cav, omega_mat, g))
    if variant is ModelVariant.LINEARIZED:
        if np.any(wc <= 0) or np.any(wm <= 0):
            raise PolaritonError("frequencies must be positive")
        root = np.sqrt((wc - wm) ** 2 + 4.0 * g * g)
        minus = 0.5 * (wc + wm - root)
        return 0.5 * (wc + wm + root), np.where(minus >= 0.0, minus, np.nan)
    modes_sq = _amplitude_modes_sq if variant in _AMPLITUDE_FORM else _velocity_modes_sq
    s_plus, s_minus = modes_sq(wc, wm, g)
    hi = np.sqrt(s_plus)
    lo = np.sqrt(np.where(s_minus >= 0.0, s_minus, np.nan))
    return np.fmax(hi, lo), np.minimum(hi, lo)


def _spc_tau(gamma):
    """Root ``tau`` in (0, 1] of ``tau**4 + 8 gamma**2 tau - 1 = 0``, over arrays.

    Ferrari's method through the resolvent root ``m`` of ``m**3 + m = 8 gamma**4``,
    written without a subtraction, so every ``gamma`` keeps full relative precision.
    """
    g2 = gamma * gamma
    m = (2.0 / math.sqrt(3.0)) * np.sinh(np.arcsinh(12.0 * math.sqrt(3.0) * g2 * g2) / 3.0)
    s = np.sqrt(1.0 + m * m)
    b = 4.0 * g2 / s
    return 2.0 / ((s + m) * (b + np.sqrt(b * b + 4.0 / (s + m))))


def min_splitting(variant: ModelVariant, g, omega_mat: float) -> MinSplitting:
    """Minimum branch splitting over the cavity frequency, in closed form, over ``g``.

    With ``wc``, ``wm`` the bare cavity and matter frequencies, velocity-coupled
    and linearized models have ``Omega**2 = (wc - wm)**2 + 4 g**2``: the minimum
    is ``2|g|`` at resonance.  Amplitude-coupled models have
    ``Omega**2 = wc**2 + wm**2 - 2 sqrt(wc wm (wc wm - 4 g**2))``, stationary at
    ``wc = wm (1 + tau**2) / (2 tau)`` with ``tau`` from :func:`_spc_tau` at
    ``gamma = g / wm``.  There ``wc wm - 4 g**2 = wm**2 tau (1 + tau**2) / 2``, so
    ``Omega = 2|g| sqrt((1 + 3 tau**2) / (2 tau (1 + tau**2)))``, free of
    cancellation at any coupling.  The result holds arrays of g's shape.
    """
    _require_positive("omega_mat", omega_mat)
    g_in = _require_finite("coupling strength", g)
    g_abs = np.abs(g_in)
    if variant in _AMPLITUDE_FORM:
        tau = _spc_tau(g_abs / omega_mat)
        t2 = tau * tau
        omega_min = 2.0 * g_abs * np.sqrt((1.0 + 3.0 * t2) / (2.0 * tau * (1.0 + t2)))
        omega_cav = omega_mat * (1.0 + t2) / (2.0 * tau)
    else:
        omega_min = 2.0 * g_abs
        omega_cav = np.full(g_in.shape, float(omega_mat))
    if g_in.ndim == 0:
        return MinSplitting(Omega_min=float(omega_min), omega_cav_at_min=float(omega_cav))
    return MinSplitting(Omega_min=omega_min, omega_cav_at_min=omega_cav)


def dressed_parameters(target: ModelVariant, omega_cav, omega_mat, g):
    """Bare frequencies and coupling ``(omega_cav, omega_mat, g)`` of a dressed model.

    The dressed model has the same spectrum as the lossless model it dresses.
    The two amplitude-coupled dressings, the Coulomb-dressed cavity and the
    dipole-dressed matter, dress the velocity-coupled (MoC) model; the
    velocity-coupled dressed dipole-dipole model dresses the amplitude-coupled
    (SpC) model.  The arguments broadcast, and the dressed cavity frequency is
    NaN wherever the SpC dressing is invalid (``omega_cav^2 - 4 g'^2 <= 0``).
    The Coulomb-dressed coupling is 0 where the dressed cavity frequency is
    (no coupling and no photon).
    """
    wc, wm, g = (np.asarray(v, dtype=float) for v in (omega_cav, omega_mat, g))
    if target is ModelVariant.ALT_COULOMB_DRESSED_CAVITY:
        wc_dressed = np.sqrt(wc * wc + 4.0 * g * g)
        # an uncoupled photon at zero frequency stays uncoupled
        safe = np.where(wc_dressed == 0.0, np.inf, wc_dressed)
        return wc_dressed, wm, -g * np.sqrt(wm / safe)
    if target is ModelVariant.ALT_DIPOLE_DRESSED_MATTER:
        wm_dressed = np.sqrt(wm * wm + 4.0 * g * g)
        return wc, wm_dressed, g * np.sqrt(wc / wm_dressed)
    if target is ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY:
        g_dressed = g * np.sqrt(wc / wm)
        wc_sq = wc * wc - 4.0 * g_dressed * g_dressed
        return np.sqrt(np.where(wc_sq > 0.0, wc_sq, np.nan)), wm, g_dressed
    raise PolaritonError(f"{target} is not a dressed model variant")
