"""Quantum two-mode oracle for the classical coupled-oscillator models.

A pair of bosonic modes with a bilinear position-position coupling and an
optional quadratic self-term on the photon mode reproduces, mode for mode,
the classical branch frequencies: the self-term coefficient ``D`` selects the
model (``D = 0`` for amplitude coupling, ``D = g**2 / omega_mat`` for
velocity coupling).  The module provides both the closed-form branch
frequencies of that quadratic Hamiltonian and a brute-force truncated Fock
diagonalization, so the two can be cross-checked without sharing any code
path with the classical solvers.  Untruncated, every level is
``E0 + n_plus*omega_plus + n_minus*omega_minus`` with
``E0 = (omega_plus + omega_minus)/2``.  The coupling-frame check compares the
truncated levels with those of the dipole-gauge partner, a different
truncated matrix with the same untruncated spectrum, so it measures
truncation error.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PolaritonError
from .units import _require_integer, _require_nonnegative, _require_positive

__all__ = [
    "HopfieldParams",
    "QuantumSpectrum",
    "hopfield_quartic_eigen",
    "truncated_fock_spectrum",
    "frame_equivalence_check",
]


@dataclass(frozen=True)
class HopfieldParams:
    omega_cav: float
    omega_mat: float
    g_qed: float
    D: float = 0.0

    def __post_init__(self):
        _require_positive("omega_cav", self.omega_cav)
        _require_positive("omega_mat", self.omega_mat)
        _require_nonnegative("g_qed", self.g_qed)
        _require_nonnegative("D", self.D)

    @property
    def stable(self) -> bool:
        """True when both normal-mode frequencies squared are positive."""
        a = self.omega_cav**2 + 4.0 * self.D * self.omega_cav
        c = 4.0 * self.g_qed**2 * self.omega_cav * self.omega_mat
        return a * self.omega_mat**2 > c


@dataclass(frozen=True)
class QuantumSpectrum:
    excitation_energies: np.ndarray
    ground_state_energy: float
    truncation: int


def hopfield_quartic_eigen(p: HopfieldParams) -> tuple[float, float]:
    """Closed-form normal-mode frequencies (omega_plus, omega_minus) in eV.

    The characteristic polynomial is a quadratic in omega^2, solved
    analytically.  Unstable parameters (lower root not positive, as for
    ``HopfieldParams.stable``) are rejected with a diagnostic rather than
    returning an imaginary or zero frequency.
    """
    a = p.omega_cav**2 + 4.0 * p.D * p.omega_cav
    b = p.omega_mat**2
    c = 4.0 * p.g_qed**2 * p.omega_cav * p.omega_mat
    root = math.sqrt((a - b) ** 2 + 4.0 * c)
    u_plus = 0.5 * (a + b + root)
    # (a + b)^2 - ((a - b)^2 + 4 c) = 4 (a b - c): cancellation-free lower mode
    u_minus = 2.0 * (a * b - c) / (a + b + root)
    if u_minus <= 0.0:
        raise PolaritonError(
            "unstable parameters: lower normal mode is not real and positive "
            f"(omega_minus^2 = {u_minus:.6g} eV^2 <= 0)"
        )
    return math.sqrt(u_plus), math.sqrt(u_minus)


def _ladder(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a ``dim``-level Fock space."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _fock_terms(p: HopfieldParams, n_max: int, *, rwa: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-mode factors (A_k, B_k) of the Hamiltonian H = sum_k kron(A_k, B_k).

    A_k acts on the photon mode, B_k on the matter mode, each truncated to
    ``n_max + 1`` Fock states.
    """
    if n_max < 2:
        raise PolaritonError(f"n_max must be >= 2, got {n_max}")
    d = n_max + 1
    if d * d > 4096:
        raise PolaritonError(f"Fock matrix dimension {d * d} exceeds the desk-scale bound of 4096 rows")
    low = _ladder(d)
    num = np.diag(np.arange(d, dtype=float))
    q = low + low.T
    eye = np.eye(d)
    wc, wm, g, dd = p.omega_cav, p.omega_mat, p.g_qed, p.D
    if rwa:
        coupling = [(g * low, low.T), (g * low.T, low)]
        self_term = dd * (2.0 * num + eye)  # counter-rotating pieces of the quadratic term dropped
    else:
        coupling = [(g * q, q)]
        self_term = dd * (q @ q)
    return [(wc * num + self_term, eye), (eye, wm * num), *coupling, (0.5 * (wc + wm) * eye, eye)]


def _parity_blocks(terms: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd parity blocks of H = sum_k kron(A_k, B_k).

    Every interaction used here changes the total excitation number by 0 or
    +/-2, so (n_a + n_b) mod 2 is conserved and H splits into two blocks of
    roughly half the dimension.  Listing each mode's even Fock states before
    its odd ones, the even block is spanned by the (n_a, n_b) parity sectors
    (even, even) and (odd, odd), the odd block by (even, odd) and (odd, even),
    each sector in kron order.  Each term adds only the products of the
    nonzero entries of A_k and B_k, scattered to their rows and columns in the
    blocks, in the order of ``terms``; the d^2 x d^2 matrix and the dense
    kron products are never formed.
    """
    d = terms[0][0].shape[0]
    sizes = np.array([(d + 1) // 2, d // 2])  # even and odd Fock states of one mode
    half, parity = np.divmod(np.arange(d), 2)
    # row of the pair state (n_a, n_b) in its block: the offset of its parity
    # sector, then its kron-order index within that sector
    offset = parity[:, None] * sizes[0] * sizes[1 - parity]
    row = offset + half[:, None] * sizes[parity] + half
    pair_parity = (parity[:, None] + parity) % 2
    n_even, n_odd = sizes
    blocks = (np.zeros((n_even**2 + n_odd**2,) * 2), np.zeros((2 * n_even * n_odd,) * 2))
    for a, b in terms:
        ra, ca = np.nonzero(a)
        rb, cb = np.nonzero(b)
        rows, cols = row[ra[:, None], rb], row[ca[:, None], cb]
        values = np.multiply.outer(a[ra, ca], b[rb, cb])
        row_parity, col_parity = pair_parity[ra[:, None], rb], pair_parity[ca[:, None], cb]
        for p, block in enumerate(blocks):
            keep = (row_parity == p) & (col_parity == p)
            block[rows[keep], cols[keep]] += values[keep]
    return blocks


def _all_levels(terms: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """All eigenvalues of H = sum_k kron(A_k, B_k), sorted, one parity block at a time."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in _parity_blocks(terms)]))


def truncated_fock_spectrum(
    p: HopfieldParams, n_max: int, n_levels: int, rwa: bool = False
) -> QuantumSpectrum:
    """Diagonalize the two-mode Hamiltonian in a truncated Fock basis.

    Returns the lowest ``n_levels`` excitation energies (level minus ground
    state) together with the ground-state energy itself.  With ``rwa=True``
    the counter-rotating coupling terms are dropped, which removes the
    ground-state dressing and reduces the excitation energies to the
    first-order (linearized) branch values when ``D = 0``.
    """
    n_max = _require_integer("n_max", n_max)
    n_levels = _require_integer("n_levels", n_levels)
    terms = _fock_terms(p, n_max, rwa=rwa)
    total = (n_max + 1) ** 2
    if not 1 <= n_levels <= total - 1:
        raise PolaritonError(
            f"n_levels must be in [1, {total - 1}] for n_max={n_max}, got {n_levels}"
        )
    levels = _all_levels(terms)
    e0 = float(levels[0])
    return QuantumSpectrum(
        excitation_energies=levels[1 : 1 + n_levels] - e0,
        ground_state_energy=e0,
        truncation=n_max,
    )


def _ladder_deviation(spectrum: QuantumSpectrum, w_plus: float, w_minus: float) -> float:
    """Max miss of ``spectrum`` against the exact ladder of modes ``w_plus``, ``w_minus``.

    The lowest sums ``n_plus*w_plus + n_minus*w_minus`` come from a heap merge
    of the rows ``n_plus = 0, 1, ...``, in memory linear in the level count.
    """
    count = len(spectrum.excitation_energies)
    rows = [(n_plus * w_plus, n_plus, 0) for n_plus in range(count + 1)]  # ascending: a heap
    exact = []
    while len(exact) <= count:
        value, n_plus, n_minus = heapq.heappop(rows)
        exact.append(value)
        heapq.heappush(rows, (n_plus * w_plus + (n_minus + 1) * w_minus, n_plus, n_minus + 1))
    ground = abs(spectrum.ground_state_energy - 0.5 * (w_plus + w_minus))
    return max(ground, float(np.max(np.abs(spectrum.excitation_energies - exact[1:]))))


def frame_equivalence_check(p: HopfieldParams, spectrum: QuantumSpectrum) -> float:
    """Max miss of ``spectrum`` against the dipole-gauge partner at its truncation.

    ``spectrum`` is the full (``rwa=False``) spectrum of ``p``.  The partner is
    the same real build with the mode roles swapped: the self-term
    ``D' = D*omega_cav/omega_mat`` on the matter mode and the coupling
    ``g'**2 = g**2 + D*(omega_cav**2 - omega_mat**2)/omega_mat``
    (``g*omega_cav/omega_mat`` for the MoC ``D``).  It keeps both quartic
    invariants, so the miss is truncation error, except at
    ``omega_cav == omega_mat`` or ``D == 0``, where the partner is the same
    operator and the miss is round-off.  Where ``g'**2 < 0`` there is no
    partner and :class:`PolaritonError` is raised.
    """
    wc, wm = p.omega_cav, p.omega_mat
    g_squared = p.g_qed**2 + p.D * (wc - wm) * (wc + wm) / wm
    if g_squared < 0.0:
        raise PolaritonError(
            f"no dipole-gauge frame partner for D = {p.D:.6g} eV, omega_cav = {wc:.6g} eV, "
            f"omega_mat = {wm:.6g} eV: g^2 + D (omega_cav^2 - omega_mat^2) / omega_mat = {g_squared:.6g} eV^2 < 0"
        )
    partner = HopfieldParams(wm, wc, math.sqrt(g_squared), p.D * wc / wm)
    levels = _all_levels(_fock_terms(partner, spectrum.truncation))
    excitations = levels[1 : 1 + len(spectrum.excitation_energies)] - levels[0]
    ground = abs(float(levels[0]) - spectrum.ground_state_energy)
    return max(ground, float(np.max(np.abs(excitations - spectrum.excitation_energies))))
