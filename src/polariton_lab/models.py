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

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import PoleError, PolaritonError

__all__ = [
    "ModelVariant",
    "OscillatorPair",
    "CoupledModel",
    "HybridModes",
    "MinSplitting",
    "eigenfrequencies",
    "eigenvector_ratio",
    "frequency_domain_matrix",
    "generic_eigenfrequencies",
    "min_splitting",
    "spc_lower_branch_exists",
    "alternative_model_equivalence",
    "linearized_eigenfrequencies",
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
        if not (math.isfinite(self.omega_cav) and self.omega_cav > 0):
            raise PolaritonError(f"omega_cav must be positive, got {self.omega_cav}")
        if not (math.isfinite(self.omega_mat) and self.omega_mat > 0):
            raise PolaritonError(f"omega_mat must be positive, got {self.omega_mat}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise PolaritonError(f"kappa must be >= 0, got {self.kappa}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise PolaritonError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def lossless(self) -> bool:
        return self.kappa == 0.0 and self.gamma == 0.0

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
        if not math.isfinite(self.g):
            raise PolaritonError(f"coupling strength must be finite, got {self.g}")
        if self.variant in (ModelVariant.MOC, ModelVariant.LINEARIZED) and self.g < 0:
            raise PolaritonError(f"{self.variant.value} coupling must be >= 0, got {self.g}")


@dataclass(frozen=True)
class HybridModes:
    """Both hybrid branches; frequencies are complex with Im <= 0 (decay)."""

    omega_plus: complex
    omega_minus: complex
    ratio_plus: complex
    ratio_minus: complex
    lower_branch_real: bool


class MinSplitting(NamedTuple):
    """Minimum splitting and where it sits; arrays when ``g`` was an array."""

    Omega_min: float
    omega_cav_at_min: float


def spc_lower_branch_exists(omega_cav: float, omega_mat: float, g: float) -> bool:
    """Whether the amplitude-coupled model has a real lower branch.

    The lower branch frequency squared is proportional to
    ``omega_cav * omega_mat - 4 g**2``; it turns imaginary when the cavity is
    tuned below ``4 g**2 / omega_mat``.
    """
    if omega_cav <= 0 or omega_mat <= 0:
        raise PolaritonError("frequencies must be positive")
    return omega_cav * omega_mat - 4.0 * g * g >= 0.0


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


def _branch_sqrt(s):
    """Frequency from frequency-squared: real branch if s >= 0, else +i sqrt(-s)."""
    if isinstance(s, complex):
        w = cmath.sqrt(s)
        return w if w.real >= 0 else -w
    if s >= 0.0:
        return complex(math.sqrt(s), 0.0)
    return complex(0.0, math.sqrt(-s))


def _fd_matrix(variant: ModelVariant, wc, wm, g, omega) -> np.ndarray:
    """Stacked 2x2 matrices M(omega), shape ``broadcast(...) + (2, 2)``.

    ``wc`` and ``wm`` may be complex (lossy) bare frequencies.
    """
    wc, wm, g, omega = np.broadcast_arrays(wc, wm, g, omega)
    m = np.empty(wc.shape + (2, 2), dtype=complex)
    if variant in _AMPLITUDE_FORM:
        cross = 2.0 * g * np.sqrt(wc * wm + 0j)
        m[..., 0, 1] = cross
        m[..., 1, 0] = cross
    elif variant in _VELOCITY_FORM:
        cross = 2.0j * omega * g
        m[..., 0, 1] = cross
        m[..., 1, 0] = -cross
    else:
        # linearized: first order in omega
        m[..., 0, 0] = wc - omega
        m[..., 1, 1] = wm - omega
        m[..., 0, 1] = g
        m[..., 1, 0] = g
        return m
    m[..., 0, 0] = wc * wc - omega**2
    m[..., 1, 1] = wm * wm - omega**2
    return m


def frequency_domain_matrix(model: CoupledModel, omega) -> np.ndarray:
    """2x2 matrix M(omega) with M @ (x_cav, x_mat) = 0 on an eigenmode.

    An array of frequencies gives the stacked matrices, shape ``omega.shape +
    (2, 2)``.
    """
    return _fd_matrix(model.variant, model.pair.complex_cav, model.pair.complex_mat, model.g, omega)


def determinant_residual(variant: ModelVariant, omega_cav, omega_mat, g, omega) -> np.ndarray:
    """Relative residual ``|det M(omega)| / max(1, max |M_ij|)^2`` over arrays.

    At an eigenfrequency the determinant vanishes, so this is a self-check of
    any branch computation; NaN rows (masked points) give NaN.
    """
    m = _fd_matrix(variant, omega_cav, omega_mat, g, omega)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.abs(det) / (scale * scale)


def generic_eigenfrequencies(model: CoupledModel) -> tuple[complex, complex]:
    """Eigenfrequencies from the 2x2 system matrices, without closed forms.

    Amplitude-coupled systems are an eigenproblem in omega^2; velocity-coupled
    systems are quadratic in omega and are linearized to a 4x4 companion
    problem.  Of each +/- frequency pair the root with Re(omega) >= 0 is kept.
    """
    wc, wm = model.pair.complex_cav, model.pair.complex_mat
    g = model.g
    if model.variant in _AMPLITUDE_FORM:
        cross = 2.0 * g * cmath.sqrt(wc * wm)
        k = np.array([[wc * wc, cross], [cross, wm * wm]], dtype=complex)
        omegas = [_branch_sqrt(complex(s)) for s in np.linalg.eigvals(k)]
    elif model.variant in _VELOCITY_FORM:
        k = np.diag([wc * wc, wm * wm]).astype(complex)
        j = np.array([[0.0, -2.0 * g], [2.0 * g, 0.0]], dtype=complex)
        comp = np.zeros((4, 4), dtype=complex)
        comp[:2, 2:] = np.eye(2)
        comp[2:, :2] = -k
        comp[2:, 2:] = -j
        freqs = 1j * np.linalg.eigvals(comp)  # x ~ exp(-i w t) => lambda = -i w
        omegas = sorted(freqs, key=lambda w: (-w.real, -w.imag))[:2]
    else:
        m = np.array([[wc, g], [g, wm]], dtype=complex)
        omegas = [complex(w) for w in np.linalg.eigvals(m)]
    omegas.sort(key=lambda w: (w.real, w.imag))
    return omegas[1], omegas[0]


def mode_ratio(variant: ModelVariant, omega_cav, omega_mat, g, omega):
    """x_cav / x_mat on the branch with eigenfrequency ``omega``, over arrays.

    Bare frequencies may be complex (lossy).  Raises :class:`PoleError` where
    the branch frequency coincides with the bare cavity frequency.
    """
    wc, wm, g, omega = (np.asarray(v) for v in (omega_cav, omega_mat, g, omega))
    if variant is ModelVariant.LINEARIZED:
        den = wc - omega
        num = -g
    elif variant in _AMPLITUDE_FORM:
        den = wc * wc - omega * omega
        num = -2.0 * g * np.sqrt(wc * wm + 0j)
    else:
        den = wc * wc - omega * omega
        num = -2.0j * omega * g
    poles = np.flatnonzero(den == 0)
    if poles.size:
        i = int(poles[0])
        where = f" (grid row {i})" if np.ndim(den) else ""
        raise PoleError(
            "eigenvector ratio has a pole: branch frequency "
            f"{np.broadcast_to(omega, den.shape).flat[i]} coincides with the bare cavity "
            f"frequency{where}"
        )
    return num / den


def _mode_ratio(model: CoupledModel, omega: complex) -> complex:
    """x_cav / x_mat on the branch with eigenfrequency ``omega``."""
    pair = model.pair
    return complex(mode_ratio(model.variant, pair.complex_cav, pair.complex_mat, model.g, omega))


def eigenfrequencies(model: CoupledModel) -> HybridModes:
    """Hybrid-mode frequencies and amplitude ratios of a coupled model.

    Lossless parameters use the closed-form branch expressions; lossy
    parameters go through the generic matrix solver with complex bare
    frequencies.  ``lower_branch_real`` reports whether the lower branch is a
    real oscillation frequency (it is not in the amplitude-coupled model below
    the low-cavity-frequency cutoff, where the frequency is returned on the
    positive imaginary axis).
    """
    pair = model.pair
    g = model.g
    if model.variant is ModelVariant.LINEARIZED:
        if pair.lossless:
            wp, wm_ = linearized_eigenfrequencies(pair.omega_cav, pair.omega_mat, g)
            plus, minus = complex(wp), complex(wm_)
        else:
            plus, minus = generic_eigenfrequencies(model)
    elif pair.lossless:
        fn = _amplitude_modes_sq if model.variant in _AMPLITUDE_FORM else _velocity_modes_sq
        s_plus, s_minus = fn(pair.omega_cav, pair.omega_mat, g)
        plus, minus = _branch_sqrt(complex(s_plus)), _branch_sqrt(complex(s_minus))
    else:
        plus, minus = generic_eigenfrequencies(model)

    if plus.real < minus.real or (plus.real == minus.real and plus.imag < minus.imag):
        plus, minus = minus, plus
    lower_real = minus.imag == 0.0 and minus.real >= 0.0

    def safe_ratio(w: complex) -> complex:
        try:
            return _mode_ratio(model, w)
        except PoleError:
            return complex(math.inf, 0.0)

    return HybridModes(
        omega_plus=plus,
        omega_minus=minus,
        ratio_plus=safe_ratio(plus),
        ratio_minus=safe_ratio(minus),
        lower_branch_real=lower_real,
    )


def eigenvector_ratio(model: CoupledModel, branch: int) -> complex:
    """x_cav / x_mat on the upper (+1) or lower (-1) branch.

    Raises :class:`PoleError` when the branch frequency coincides with the
    bare cavity frequency (uncoupled degenerate case).
    """
    if branch not in (+1, -1):
        raise PolaritonError(f"branch must be +1 or -1, got {branch!r}")
    modes = eigenfrequencies(model)
    omega = modes.omega_plus if branch == +1 else modes.omega_minus
    return _mode_ratio(model, omega)


def branch_frequencies(variant: ModelVariant, omega_cav, omega_mat, g):
    """Lossless branch frequencies ``(omega_plus, omega_minus)`` over arrays.

    The arguments broadcast against each other.  These are the closed forms
    :func:`eigenfrequencies` uses for lossless parameters, evaluated on a
    whole grid at once.  ``omega_minus`` is NaN wherever the lower branch is
    not a real frequency: below the amplitude-coupled cutoff, or where the
    linearized lower branch turns negative.  NaN parameters give NaN rows.
    """
    wc, wm, g = (np.asarray(v, dtype=float) for v in (omega_cav, omega_mat, g))
    if variant is ModelVariant.LINEARIZED:
        plus, minus = linearized_eigenfrequencies(wc, wm, g)
        return plus, np.where(minus >= 0.0, minus, np.nan)
    modes_sq = _amplitude_modes_sq if variant in _AMPLITUDE_FORM else _velocity_modes_sq
    s_plus, s_minus = modes_sq(wc, wm, g)
    hi = np.sqrt(s_plus)
    lo = np.sqrt(np.where(s_minus >= 0.0, s_minus, np.nan))
    return np.fmax(hi, lo), np.minimum(hi, lo)


def _splitting_curve(
    variant: ModelVariant, g: float, omega_mat: float, omega_cavs: np.ndarray
) -> np.ndarray:
    """Vectorized branch splitting over a grid of cavity frequencies.

    Grid points where the lower branch is not a real frequency give NaN.
    """
    wc = np.asarray(omega_cavs, dtype=float)
    wm = float(omega_mat)
    if variant is ModelVariant.LINEARIZED:
        return np.sqrt((wc - wm) ** 2 + 4.0 * abs(g) ** 2)
    fn = _amplitude_modes_sq if variant in _AMPLITUDE_FORM else _velocity_modes_sq
    s_plus, s_minus = fn(wc, wm, g)
    out = np.full(wc.shape, np.nan)
    valid = s_minus >= 0.0
    out[valid] = np.sqrt(s_plus[valid]) - np.sqrt(s_minus[valid])
    return out


def min_splitting(
    variant: ModelVariant,
    g,
    omega_mat: float,
    sweep=None,
) -> MinSplitting:
    """Minimum branch splitting over a cavity-frequency sweep.

    The sweep grid must span at least [0.2, 3] * omega_mat with >= 1000
    points; the coarse grid minimum is then refined by a golden-section search
    to an abscissa tolerance of 1e-6 * omega_mat.  Only cavity frequencies
    where both branches are real contribute.  ``g`` may be an array of
    couplings: the searches then run in lockstep, each element stopping once
    its own bracket has converged, and the result holds arrays of g's shape.
    """
    if omega_mat <= 0:
        raise PolaritonError("omega_mat must be positive")
    if sweep is None:
        grid = np.linspace(0.2, 3.0, 1201) * omega_mat
    else:
        grid = np.sort(np.asarray(sweep, dtype=float))
        if grid.size < 1000 or grid[0] > 0.2 * omega_mat + 1e-12 or grid[-1] < 3.0 * omega_mat - 1e-12:
            raise PolaritonError(
                "sweep grid must span at least [0.2, 3] * omega_mat with >= 1000 points"
            )
    g_in = np.asarray(g, dtype=float)
    gs = g_in.ravel()
    a = np.empty(gs.size)
    b = np.empty(gs.size)
    # coarse scan one coupling at a time: a full len(g) x len(grid) table
    # would cost far more memory than the scan saves
    for k, g_k in enumerate(gs):
        split = _splitting_curve(variant, g_k, omega_mat, grid)
        if np.all(np.isnan(split)):
            raise PolaritonError(
                f"no cavity frequency in the sweep has two real branches at g = {float(g_k)!r}"
            )
        i = int(np.nanargmin(split))
        a[k] = grid[max(i - 1, 0)]
        b[k] = grid[min(i + 1, grid.size - 1)]

    def f(wc, g_sel):
        val = _splitting_curve(variant, g_sel, omega_mat, wc)
        return np.where(np.isnan(val), np.inf, val)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c, gs), f(d, gs)
    tol = 1e-6 * omega_mat
    active = np.flatnonzero(b - a > tol)
    while active.size:
        left = fc[active] < fd[active]
        lt, rt = active[left], active[~left]
        # minimum in [a, d]: d becomes the new b, c the new d
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        # minimum in [c, b]: c becomes the new a, d the new c
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        probe = np.where(left, c[active], d[active])
        f_probe = f(probe, gs[active])
        fc[lt] = f_probe[left]
        fd[rt] = f_probe[~left]
        active = active[b[active] - a[active] > tol]
    best = 0.5 * (a + b)
    omega_min = f(best, gs)
    if g_in.ndim == 0:
        return MinSplitting(Omega_min=float(omega_min[0]), omega_cav_at_min=float(best[0]))
    return MinSplitting(
        Omega_min=omega_min.reshape(g_in.shape), omega_cav_at_min=best.reshape(g_in.shape)
    )


def dressed_parameters(base: ModelVariant, target: ModelVariant, omega_cav, omega_mat, g):
    """Bare frequencies and coupling ``(omega_cav, omega_mat, g)`` of a dressed model.

    The array form of :func:`alternative_model_equivalence` for lossless
    parameters: the arguments broadcast, and the dressed cavity frequency is
    NaN wherever the SpC dressing is invalid (``omega_cav^2 - 4 g'^2 <= 0``).
    """
    wc, wm, g = (np.asarray(v, dtype=float) for v in (omega_cav, omega_mat, g))
    if base is ModelVariant.MOC:
        if target is ModelVariant.ALT_COULOMB_DRESSED_CAVITY:
            wc_dressed = np.sqrt(wc * wc + 4.0 * g * g)
            return wc_dressed, wm, -g * np.sqrt(wm / wc_dressed)
        if target is ModelVariant.ALT_DIPOLE_DRESSED_MATTER:
            wm_dressed = np.sqrt(wm * wm + 4.0 * g * g)
            return wc, wm_dressed, g * np.sqrt(wc / wm_dressed)
        raise PolaritonError(f"no MoC dressing for target {target}")
    if base is ModelVariant.SPC:
        if target is not ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY:
            raise PolaritonError(f"no SpC dressing for target {target}")
        g_dressed = g * np.sqrt(wc / wm)
        wc_sq = wc * wc - 4.0 * g_dressed * g_dressed
        return np.sqrt(np.where(wc_sq > 0.0, wc_sq, np.nan)), wm, g_dressed
    raise PolaritonError("equivalence mapping starts from an SpC or MoC model")


def alternative_model_equivalence(
    base: CoupledModel, target: ModelVariant | None = None
) -> CoupledModel:
    """Dressed alternative model with the same spectrum as ``base``.

    A velocity-coupled base maps onto one of the two amplitude-coupled
    dressings (Coulomb-dressed cavity by default, or dipole-dressed matter);
    an amplitude-coupled base maps onto the velocity-coupled dressed
    dipole-dipole model.  Defined for lossless models.
    """
    if base.variant not in (ModelVariant.SPC, ModelVariant.MOC):
        raise PolaritonError("equivalence mapping starts from an SpC or MoC model")
    if not base.pair.lossless:
        raise PolaritonError("dressing transformations are defined for lossless models")
    if target is None:
        target = (
            ModelVariant.ALT_COULOMB_DRESSED_CAVITY
            if base.variant is ModelVariant.MOC
            else ModelVariant.ALT_DIPOLE_DIPOLE_DRESSED_CAVITY
        )
    wc, wm, g = dressed_parameters(
        base.variant, target, base.pair.omega_cav, base.pair.omega_mat, base.g
    )
    if np.isnan(wc):
        raise PolaritonError(
            "invalid dressing: dressed cavity frequency squared omega_cav^2 - 4 g'^2 "
            f"is not positive (omega_cav = {base.pair.omega_cav}, g' = {float(g):.6g})"
        )
    return CoupledModel(OscillatorPair(float(wc), float(wm)), target, float(g))


def linearized_eigenfrequencies(omega_cav, omega_mat, g_lin) -> tuple[float, float]:
    """Branch frequencies of the model linear in omega (valid outside USC).

    Array arguments broadcast and give arrays of branch frequencies.
    """
    if np.any(np.asarray(omega_cav) <= 0) or np.any(np.asarray(omega_mat) <= 0):
        raise PolaritonError("frequencies must be positive")
    gabs = np.abs(g_lin)
    root = np.sqrt((omega_cav - omega_mat) ** 2 + 4.0 * gabs * gabs)
    return 0.5 * (omega_cav + omega_mat + root), 0.5 * (omega_cav + omega_mat - root)
