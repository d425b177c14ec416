"""Unit system and conversions between experimental and internal quantities.

Internally everything runs in natural units with hbar = c = 1: energies (and
frequencies) in eV, lengths in nm, charges in units of the elementary charge
and masses in proton masses.  Oscillator strengths f = q^2/m are therefore
dimensionless multiples of e^2/m_p, and the combination f/(4 pi eps0), which
is what actually enters couplings and polarizabilities, carries units of
nm^3 eV^2.

The input guards (``_require_*``, ``_as_array``, ``_as_vec``, ``_as_points``,
``_separation`` and ``_reduced_strength``) live here and nowhere else, and a
layer reads the float array a guard returns.  A ragged, complex, non-finite,
out-of-range or fractional number or array element, or two equal points,
raise :class:`PolaritonError` naming the argument (and, for an array, its
first bad grid row) instead of being dropped, truncated or turned into NaN.
The desk-scale bounds (``_MAX_*``) are here too, so that the layers and the
scenario schema read one number each.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import PolaritonError

__all__ = [
    "UnitSystem",
    "UNITS",
    "OscillatorStrength",
    "dipole_moment_to_oscillator_strength",
    "coupling_dipole_dipole",
    "angular_factor",
]

_MAX_DIPOLES = 500  # dipoles per lattice
_MAX_MODES = 500  # cavity modes per Fabry-Perot spec
_MAX_FOCK_ROWS = 4096  # rows of the two-mode truncated Fock space, (n_max + 1)^2


def _raise_first_bad(bad, error, message, row: str = "grid row") -> None:
    """Raise ``error(message(i, where))`` at the first true element ``i`` of ``bad``, if any,
    with ``where`` " (grid row i)" for an array ``bad`` and empty for a scalar one."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise error(message(i, f" ({row} {i})" if np.ndim(bad) else ""))


def _as_array(name: str, value) -> np.ndarray:
    """``value`` as an array, complex if it is; raise naming ``name`` if it is a ragged nested list."""
    try:
        return np.asarray(value)
    except ValueError as exc:
        raise PolaritonError(f"{name} is not a rectangular array: {exc}") from None


def _reject(name: str, value, arr: np.ndarray, good: np.ndarray, rule: str) -> None:
    """Raise naming ``name``, the ``rule`` and the first element, or grid row of an array, not all ``good``."""
    if not good.all():
        bad, got = (~good, [value]) if arr.ndim == 0 else (~good.reshape(len(arr), -1).all(axis=1), arr)
        _raise_first_bad(bad, PolaritonError, lambda i, where: f"{name} must be {rule}, got {got[i]}{where}")


def _require(name: str, value, rule: str, ok=None) -> np.ndarray:
    """``value`` as a float array, not copied if it is one, if it is rectangular and real, finite and ``ok``."""
    arr = _as_array(name, value)
    if arr.dtype.kind == "c":  # a float cast would drop the imaginary part with only a warning
        _reject(name, value, arr, arr.imag == 0, "real")
        arr = arr.real
    arr = arr.astype(float, copy=False)
    _reject(name, value, arr, np.isfinite(arr) if ok is None else np.isfinite(arr) & ok(arr), rule)
    return arr


_require_finite = partial(_require, rule="finite")
_require_positive = partial(_require, rule="finite and positive", ok=lambda a: a > 0)
_require_nonnegative = partial(_require, rule="finite and >= 0", ok=lambda a: a >= 0)
_require_at_least_one = partial(_require, rule=">= 1 and finite", ok=lambda a: a >= 1)


def _require_integer(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is a whole number >= ``minimum`` (4 or 4.0, not 4.5, NaN or True)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not whole or value < minimum:
        raise PolaritonError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants of the eV/nm/e/m_p natural-unit system (CODATA)."""

    hbar_c: float = 197.3269804  # eV nm
    coulomb_const: float = 1.43996448  # e^2/(4 pi eps0), eV nm
    proton_mass_energy: float = 9.38272088e8  # m_p c^2, eV
    debye_in_e_nm: float = 0.020819434  # e nm per Debye
    light_speed: float = 1.0


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
    vec = _require_finite(name, value)
    if vec.shape != (size,):
        raise PolaritonError(f"{name} must be a {size}-vector, got {value!r}")
    return vec


def _as_points(name: str, value) -> np.ndarray:
    """An (N, 3) array of finite points; an empty input gives shape (0, 3)."""
    pts = _require_finite(name, value)
    if pts.size == 0:
        pts = pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise PolaritonError(f"{name} must be an (N, 3) array of 3-vectors, got an array of shape {pts.shape}")
    return pts


def _separation(name_a: str, a, name_b: str, b) -> tuple[float, np.ndarray]:
    """The distance from point ``a`` to point ``b`` and the unit vector along it; a zero distance raises."""
    a, b = _as_vec(name_a, a), _as_vec(name_b, b)
    sep = b - a
    dist = float(np.linalg.norm(sep))
    if dist == 0.0:
        raise PolaritonError(f"{name_a} and {name_b} must be distinct points, got {a} and {b}")
    return dist, sep / dist


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
    dist, axis = _separation("r_cav", r_cav, "r_mat", r_mat)
    n_dcav = _unit_vector("n_dcav", n_dcav)
    n_dmat = _unit_vector("n_dmat", n_dmat)
    ang = angular_factor(n_dcav, n_dmat, axis)
    f_red = math.sqrt(_reduced_strength(f_cav) * _reduced_strength(f_mat))
    return 0.5 * f_red * ang / (dist**3 * math.sqrt(omega_cav * omega_mat))
