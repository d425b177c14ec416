"""Unit system and conversions between experimental and internal quantities.

Internally everything runs in natural units with hbar = c = 1: energies (and
frequencies) in eV, lengths in nm, charges in units of the elementary charge
and masses in proton masses.  Oscillator strengths f = q^2/m are therefore
dimensionless multiples of e^2/m_p, and the combination f/(4 pi eps0), which
is what actually enters couplings and polarizabilities, carries units of
nm^3 eV^2.

The input guards (``_require_*``, ``_as_vec``, ``_as_points`` and
``_reduced_strength``) live here and nowhere else: every layer checks its
finite-and-in-range and integer arguments through them, so a non-finite,
out-of-range or fractional number or array element raises
:class:`PolaritonError` naming the argument (and, for an array, its first bad
grid row) instead of turning into NaN or being truncated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import PolaritonError

__all__ = [
    "UnitSystem",
    "UNITS",
    "OscillatorStrength",
    "dipole_moment_to_oscillator_strength",
    "coupling_dipole_dipole",
    "angular_factor",
]


def _raise_first_bad(bad, error, message, row: str = "grid row") -> None:
    """Raise ``error(message(i, where))`` at the first true element ``i`` of ``bad``, if any,
    with ``where`` " (grid row i)" for an array ``bad`` and empty for a scalar one."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise error(message(i, f" ({row} {i})" if np.ndim(bad) else ""))


def _require(name: str, value, rule: str, ok=None):
    """Return ``value`` if each of its elements is finite and passes ``ok``.

    Otherwise raise naming ``name``, the ``rule`` and the first bad element;
    an array's is named by its grid row (a whole row for an (N, 3) array).
    """
    arr = np.asarray(value, dtype=float)
    good = np.isfinite(arr) if ok is None else np.isfinite(arr) & ok(arr)
    if not good.all():
        bad, got = (~good, [value]) if arr.ndim == 0 else (~good.reshape(len(arr), -1).all(axis=1), arr)
        _raise_first_bad(bad, PolaritonError, lambda i, where: f"{name} must be {rule}, got {got[i]}{where}")
    return value


_require_finite = partial(_require, rule="finite")
_require_positive = partial(_require, rule="finite and positive", ok=lambda a: a > 0)
_require_nonnegative = partial(_require, rule="finite and >= 0", ok=lambda a: a >= 0)
_require_at_least_one = partial(_require, rule=">= 1 and finite", ok=lambda a: a >= 1)


def _require_integer(name: str, value) -> int:
    """``value`` as an int if it is a whole number (4 or 4.0, not 4.5, NaN or True)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise PolaritonError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants of the eV/nm/e/m_p natural-unit system (CODATA)."""

    hbar_c: float = 197.3269804  # eV nm
    coulomb_const: float = 1.43996448  # e^2/(4 pi eps0), eV nm
    proton_mass_energy: float = 9.38272088e8  # m_p c^2, eV
    debye_in_e_nm: float = 0.020819434  # e nm per Debye
    light_speed: float = 1.0

    def __post_init__(self):
        for name in ("hbar_c", "coulomb_const", "proton_mass_energy", "debye_in_e_nm", "light_speed"):
            _require_positive(f"unit-system constant {name}", getattr(self, name))


UNITS = UnitSystem()


@dataclass(frozen=True)
class OscillatorStrength:
    """Oscillator strength f = q^2/m of a dipolar excitation, in e^2/m_p units."""

    value: float

    def __post_init__(self):
        _require_nonnegative("oscillator strength", self.value)

    def reduced(self) -> float:
        """f/(4 pi eps0) in nm^3 eV^2 -- the combination entering couplings."""
        return self.value * UNITS.coulomb_const * UNITS.hbar_c**2 / UNITS.proton_mass_energy

    def __float__(self) -> float:
        return self.value


def _reduced_strength(f) -> float:
    """f/(4 pi eps0) of an :class:`OscillatorStrength` or a plain number (validated)."""
    if not isinstance(f, OscillatorStrength):
        f = OscillatorStrength(float(f))
    return f.reduced()


def dipole_moment_to_oscillator_strength(mu: float, omega: float) -> OscillatorStrength:
    """Oscillator strength of a transition with dipole moment ``mu``.

    Inverts mu = sqrt(f / (2 omega)) (natural units), i.e. f = 2 omega mu^2.

    Parameters
    ----------
    mu : float
        Transition dipole moment in Debye, >= 0.
    omega : float
        Transition frequency in eV, > 0.
    """
    _require_nonnegative("dipole moment", mu)
    _require_positive("omega", omega)
    mu_e_nm = mu * UNITS.debye_in_e_nm
    f = 2.0 * UNITS.proton_mass_energy * omega * (mu_e_nm / UNITS.hbar_c) ** 2
    return OscillatorStrength(f)


def _as_vec(name: str, value, size: int = 3) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.shape != (size,) or not np.all(np.isfinite(vec)):
        raise PolaritonError(f"{name} must be a finite {size}-vector, got {value!r}")
    return vec


def _as_points(name: str, value) -> np.ndarray:
    """An (N, 3) array of finite points; an empty input gives shape (0, 3)."""
    pts = np.asarray(value, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise PolaritonError(f"{name} must be an (N, 3) array of 3-vectors, got an array of shape {pts.shape}")
    return _require_finite(name, pts)


def _unit_vector(name: str, n) -> np.ndarray:
    n = _as_vec(name, n)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise PolaritonError(f"{name} must be normalized to 1 within 1e-12, |{name}| = {np.linalg.norm(n)!r}")
    return n


def angular_factor(n_a: np.ndarray, n_b: np.ndarray, axis: np.ndarray) -> float:
    """Dipole-dipole angular factor n_a.n_b - 3 (n_a.axis)(n_b.axis); in [-2, 2]."""
    return float(n_a @ n_b - 3.0 * (n_a @ axis) * (n_b @ axis))


def coupling_dipole_dipole(
    f_cav,
    f_mat,
    r_cav,
    r_mat,
    n_dcav,
    n_dmat,
    omega_cav: float,
    omega_mat: float,
) -> float:
    """Signed quasistatic dipole-dipole coupling strength (eV).

    Two dipolar oscillators at ``r_cav`` and ``r_mat`` with orientations
    ``n_dcav``/``n_dmat`` couple through their near fields with

        g = (1/2) sqrt(f_cav f_mat / (4 pi eps0)^2) * A / (|r|^3 sqrt(w_cav w_mat))

    where A = n_dcav.n_dmat - 3 (n_dcav.r_hat)(n_dmat.r_hat) is the angular
    factor (|A| <= 2, A = -2 for the collinear head-to-tail arrangement).
    The sign of g follows A; symmetric under swapping the two oscillators.
    The strengths are :class:`OscillatorStrength` values or plain numbers
    in e^2/m_p units.
    """
    _require_positive("omega_cav", omega_cav)
    _require_positive("omega_mat", omega_mat)
    r_cav = _as_vec("r_cav", r_cav)
    r_mat = _as_vec("r_mat", r_mat)
    n_dcav = _unit_vector("n_dcav", n_dcav)
    n_dmat = _unit_vector("n_dmat", n_dmat)
    sep = r_mat - r_cav
    dist = float(np.linalg.norm(sep))
    if dist <= 0.0:
        raise PolaritonError("dipole positions coincide; separation must be > 0")
    axis = sep / dist
    ang = angular_factor(n_dcav, n_dmat, axis)
    f_red = math.sqrt(_reduced_strength(f_cav) * _reduced_strength(f_mat))
    return 0.5 * f_red * ang / (dist**3 * math.sqrt(omega_cav * omega_mat))
