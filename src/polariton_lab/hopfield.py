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

The truncated Hamiltonian is solved for its lowest levels only.  Each parity
block, sorted by photon number with photon numbers paired, is a
block-tridiagonal band of super-blocks of ``n_max + 1`` rows, built from the
products of the nonzero factor entries alone.  From a shift that a block
Cholesky factorization proves lies below the spectrum, shift-and-invert
block Krylov converges the wanted levels, and the Sylvester inertia of the
block LDL^T just above the last of them certifies that none was missed; a
band whose levels the certificate rejects is solved whole instead.  The
inertia count stops at the first pivot after which the rest of the band is
strictly diagonally dominant above the shift: by Gershgorin's theorem that
rest is positive definite, so by Sylvester's law it adds no eigenvalue below
the shift.  The shift bound and a near-converged start both come from one
dense ``eigh`` of the band's states whose photon and matter numbers are both
below a cut.  Bands too small for Krylov to pay are diagonalized whole,
each level refined by the Rayleigh quotient of its eigenvector.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PolaritonError
from .units import _MAX_FOCK_ROWS, _require_integer, _require_nonnegative, _require_positive

# Krylov stops when every wanted Ritz residual is at most this, times the largest diagonal entry
_RESIDUAL = 1e-10
# the inertia count stops where the rest of the band is diagonally dominant by more than this,
# times the largest diagonal entry: far above the round-off of row sums of 41 entries
_ROUNDOFF = 1e-12
# a parity block is solved by Krylov only when a basis of this many blocks fits in half
# of it: measured on n_max 24-40, the Krylov path is the faster from 18-23 blocks up
_KRYLOV_BLOCKS = 22
# the Krylov start's principal block: photon and matter numbers below this (128 rows per parity)
# or below (n_max + 1) / 2, a quarter of a smaller band
_START_CUT = 16

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
    if d * d > _MAX_FOCK_ROWS:
        raise PolaritonError(f"Fock matrix dimension {d * d} exceeds the desk-scale bound of {_MAX_FOCK_ROWS} rows")
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


def _band_numbers(d: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers (super-block, row) and matter numbers (row) of the rows of ``_band``."""
    matter = np.concatenate((np.arange(parity, d, 2), np.arange(1 - parity, d, 2)))
    return 2 * np.arange((d + 1) // 2)[:, None] + (np.arange(d) >= (d + 1 - parity) // 2), matter


@functools.lru_cache(maxsize=8)
def _scatter_layout(d: int, parity: int, pattern: tuple[bytes, ...]) -> tuple:
    """Where ``_band`` puts the products of nonzero factor entries, for the factors' nonzero ``pattern``.

    Per term ``(src_a, src_b, dst)``: the flat indices of the nonzero entries
    of A_k and B_k whose product lies in the parity band, on its diagonal
    super-blocks or below them, and the flat index of that product in the
    buffer that holds ``diag`` and then ``sub``.  Also the phantom rows of the
    last super-block.  Indices are int32: a layout at n_max 40 takes 0.07 MiB,
    and the cache holds at most eight.
    """
    m = (d + 1) // 2
    photon, matter = _band_numbers(d, parity)
    row = np.full((d + 1, d), -1)  # position of state (n_a, n_b) in its super-block
    row[photon, matter] = np.arange(d)
    layout = []
    for a_mask, b_mask in zip(pattern[::2], pattern[1::2]):
        src_a = np.flatnonzero(np.frombuffer(a_mask, dtype=bool))
        src_b = np.flatnonzero(np.frombuffer(b_mask, dtype=bool))
        # a product of A_k[n_a, n_a'] and B_k[n_b, n_b'] is the entry ((n_a, n_b), (n_a', n_b')) of the kron
        n_a, n_a_col = (x[:, None] for x in np.divmod(src_a, d))
        n_b, n_b_col = np.divmod(src_b, d)
        src_a, src_b = np.broadcast_arrays(src_a[:, None], src_b)
        i, j = row[n_a, n_b], row[n_a_col, n_b_col]  # row and column in their super-blocks
        block, step = n_a // 2, n_a // 2 - n_a_col // 2
        keep = ((n_a + n_b) % 2 == parity) & ((n_a_col + n_b_col) % 2 == parity) & (step >= 0) & (step <= 1)
        # diag[block] for a step of 0, sub[block - 1] (after the m diagonal blocks) for a step of 1
        dst = ((block + step * (m - 1)) * d + i) * d + j
        layout.append(tuple(x[keep].astype(np.int32) for x in (src_a, src_b, dst)))
    return tuple(layout), np.flatnonzero(photon[-1] == d)


def _band(
    terms: list[tuple[np.ndarray, np.ndarray]], parity: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The block of states with n_a + n_b of parity ``parity`` as a block-tridiagonal band ``(diag, sub, size, floor)``.

    Every interaction changes n_a + n_b by 0 or +/-2.  Photon-major, with
    photon numbers 2j and 2j + 1 in super-block j of d = n_max + 1 rows and
    matter numbers ascending, only neighbouring super-blocks meet (the
    coupling moves n_a by 1, the self-term by 2): ``sub[j]`` couples rows of
    super-block j + 1 to columns of super-block j.  Entries sum the term
    products in term order from 0, as the kron sum does; only the products of
    nonzero factor entries are formed, since every other product is a zero
    (the factor entries are finite), which leaves a sum unchanged.  Rows
    from ``size`` on (photon number d, for odd d) are decoupled phantoms,
    with a diagonal above every level.
    ``floor[j]`` is the least Gershgorin bound, diagonal minus the absolute
    off-diagonal row sum, over the rows of super-blocks j and on.
    """
    d = terms[0][0].shape[0]
    m = (d + 1) // 2
    layout, phantom = _scatter_layout(d, parity, tuple((f != 0.0).tobytes() for term in terms for f in term))
    flat = np.zeros((2 * m - 1) * d * d)
    for (a, b), (src_a, src_b, dst) in zip(terms, layout):
        flat[dst] += a.ravel()[src_a] * b.ravel()[src_b]
    diag, sub = flat[: m * d * d].reshape(m, d, d), flat[m * d * d :].reshape(m - 1, d, d)
    rows, sub_rows, sub_cols = np.abs(diag).sum(axis=2), np.abs(sub).sum(axis=2), np.abs(sub).sum(axis=1)
    # twice a bound on the largest row sum, so above every level
    bound = rows.max() + sub_rows.max() + sub_cols.max()
    diagonal = np.diagonal(diag, axis1=1, axis2=2)  # a view: the phantom rows read 0 here, 2 * bound below
    radii = rows - np.abs(diagonal)  # the absolute off-diagonal row sums
    radii[1:] += sub_rows
    radii[:-1] += sub_cols
    diag[-1, phantom, phantom] = 2.0 * bound
    floor = np.minimum.accumulate(np.min(diagonal - radii, axis=1)[::-1])[::-1]
    return diag, sub, m * d - len(phantom), floor


def _band_product(diag: np.ndarray, sub: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H @ x for the band of ``_band`` and ``x`` of shape (rows, columns)."""
    x = x.reshape(*diag.shape[:2], -1)
    y = diag @ x
    y[1:] += sub @ x[:-1]
    y[:-1] += sub.transpose(0, 2, 1) @ x[1:]
    return y.reshape(-1, x.shape[2])


def _dense(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The band of ``_band`` as a dense matrix, its lower triangle only, as ``eigh`` and ``eigvalsh`` read it."""
    m, d, _ = diag.shape
    dense = np.zeros((m, d, m, d))
    dense[np.arange(m), :, np.arange(m)] = diag
    dense[np.arange(1, m), :, np.arange(m - 1)] = sub
    return dense.reshape(m * d, m * d)


def _ldl(
    diag: np.ndarray, sub: np.ndarray, shift: float, floor: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Block LDL^T of H - shift: inverted pivots, multipliers and the number of eigenvalues below ``shift``.

    Pivot j is S_j = diag[j] - shift - sub[j-1] S_{j-1}^-1 sub[j-1]^T.  By
    Sylvester's law of inertia H - shift has as many negative eigenvalues as
    the pivots together; a pivot whose Cholesky factorization succeeds has none.

    Given the Gershgorin ``floor`` of ``_band``, the count ends at the first
    pivot S_J after which the rest of H - shift, the Schur complement made of
    S_J, the super-blocks below it and their couplings, is strictly
    diagonally dominant by more than ``_ROUNDOFF`` times the largest diagonal
    entry.  That rest is positive definite, so it adds no eigenvalue below
    ``shift``: S_J and the pivots after it are not factored, and only those
    before S_J are returned.
    """
    eye = np.eye(diag.shape[1])
    inverses, multipliers = np.empty_like(diag), np.empty_like(sub)
    if floor is not None:
        margin = _ROUNDOFF * float(np.max(np.diagonal(diag, axis1=1, axis2=2)))
    below = 0
    pivot = diag[0] - shift * eye
    for j in range(len(diag)):
        if (
            floor is not None
            and j < len(sub)
            and floor[j + 1] - shift > margin
            # Gershgorin on the rows of S_J: their couplings are S_J's own and sub[J]'s columns
            and np.all(2.0 * np.diagonal(pivot) - np.abs(pivot).sum(axis=1) - np.abs(sub[j]).sum(axis=0) > margin)
        ):
            return inverses[:j], multipliers[:j], below
        try:
            np.linalg.cholesky(pivot)
        except np.linalg.LinAlgError:
            below += int(np.count_nonzero(np.linalg.eigvalsh(pivot) < 0.0))
        inverses[j] = np.linalg.inv(pivot)
        if j < len(sub):
            multipliers[j] = sub[j] @ inverses[j]
            pivot = diag[j + 1] - shift * eye - multipliers[j] @ sub[j].T
    return inverses, multipliers, below


def _shifted_solve(inverses: np.ndarray, multipliers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(H - shift)^-1 @ x from the factorization of ``_ldl``, a super-block at a time."""
    z = x.reshape(*inverses.shape[:2], -1).copy()
    for j, multiplier in enumerate(multipliers):
        z[j + 1] -= multiplier @ z[j]
    z = inverses @ z
    for j in reversed(range(len(multipliers))):
        z[j] -= multipliers[j].T @ z[j + 1]
    return z.reshape(x.shape)


def _krylov_levels(
    diag: np.ndarray, sub: np.ndarray, size: int, count: int, low: np.ndarray, floor: np.ndarray
) -> np.ndarray | None:
    """The lowest ``count`` levels of a band by shift-and-invert block Krylov, or None if it must be solved whole.

    One dense ``eigh`` of the principal block on the rows ``low`` and the
    ``count + 2`` rows of lowest diagonal gives the shift bound (its lowest
    level, above the band's by Cauchy interlacing) and the start (its lowest
    eigenvectors, near the band's).  The basis grows until the lowest
    ``count`` Ritz pairs, with any Ritz values clustered just above them,
    have residuals of at most ``_RESIDUAL`` times the largest diagonal entry;
    those are certified, with the band's Gershgorin ``floor``, and refined by
    a last Rayleigh-Ritz pass of their own.  None means the certificate
    counted levels that the basis missed, or the basis filled half the band.
    """
    n = diag.shape[0] * diag.shape[1]
    exponent = math.frexp(float(np.max(np.abs(diag))))[1]  # scaled exactly to entries of at most 1
    diag, sub, floor = (np.ldexp(x, -exponent) for x in (diag, sub, floor))
    diagonal = np.diagonal(diag, axis1=1, axis2=2).ravel()
    scale = float(diagonal[:size].max())
    width, limit, tol = count + 2, n // 2, _RESIDUAL * scale
    gap = 10.0 * tol  # Ritz values closer than 2 * gap are one cluster, reported whole
    # with the rows of lowest diagonal: a soft mode puts low levels beyond the cut
    principal = np.union1d(low, np.argsort(diagonal[:size], kind="stable")[:width])
    blocks = principal[-1] // diag.shape[1] + 1
    levels, near = np.linalg.eigh(_dense(diag[:blocks], sub[: blocks - 1])[np.ix_(principal, principal)])
    # step down from the block's lowest level until the factorization proves the shift is below the spectrum
    step = 1e-3 * scale
    while (factor := _ldl(diag, sub, levels[0] - step))[2]:
        step *= 4.0
    # deterministic start, perturbed off the phantom rows so that the next block stays independent of it
    start = 1e-10 * np.cos(np.outer(np.arange(n), np.arange(1, width + 1)))
    start[size:] = 0.0
    start[principal] += near[:, :width]
    block = np.linalg.qr(start)[0]
    rows, products, projected = np.empty((limit, n)), np.empty((limit, n)), np.empty((limit, limit))
    k = steps = check = 0
    while k + width <= limit:
        rows[k : k + width] = block.T
        products[k : k + width] = _band_product(diag, sub, block).T
        projected[k : k + width, : k + width] = products[k : k + width] @ rows[: k + width].T
        k += width
        steps += 1
        if steps >= check:
            ritz, vectors = np.linalg.eigh(projected[:k, :k])  # reads the lower triangle
            found = count
            while found < k and ritz[found] - ritz[found - 1] <= 2.0 * gap:
                found += 1
            if found < k:
                wanted = vectors[:, :found].T
                ritz_vectors = wanted @ rows[:k]
                misfit = wanted @ products[:k] - ritz[:found, None] * ritz_vectors
                residual = np.max(np.linalg.norm(misfit, axis=1))
                if residual <= tol:
                    if _ldl(diag, sub, ritz[found - 1] + gap, floor)[2] != found:
                        return None  # a level the basis missed, as a degenerate one wider than the block
                    q = np.linalg.qr(ritz_vectors.T)[0]
                    return np.ldexp(np.linalg.eigvalsh(q.T @ _band_product(diag, sub, q))[:count], exponent)
                # residuals fall about geometrically: check again when they should be below tol
                ahead = 1
                if check and residual < last:
                    rate = (residual / last) ** (1.0 / (steps - last_step))
                    ahead = min(max(int(math.log(tol / residual) / math.log(rate)), 1), 4)
                check, last, last_step = steps + ahead, residual, steps
        w = _shifted_solve(*factor[:2], block)
        block = np.linalg.qr(w - rows[:k].T @ (rows[:k] @ w))[0]
        # twice: the QR of a near-dependent block loses orthogonality to the basis by its condition number
        block = np.linalg.qr(block - rows[:k].T @ (rows[:k] @ block))[0]
    return None


def _dense_levels(diag: np.ndarray, sub: np.ndarray, size: int, count: int) -> np.ndarray:
    """The lowest ``count`` levels of a band from one dense ``eigh``, each refined by the Rayleigh quotient of its vector.

    The eigenvalues of ``eigh`` carry the round-off of its reduction to
    tridiagonal form, which grows with the band: up to 6e-12 at levels near
    1200 for n_max 40.  The quotient is off by the square of the vector's
    error only.  It is summed as the level plus v^T (H - level) v, with the
    diagonal's part taken before the product, so that the round-off scales
    with the off-diagonal entries and the small residual, not with the level:
    within an ulp or two of the level.
    """
    levels, vectors = np.linalg.eigh(_dense(diag, sub)[:size, :size])
    levels, vectors = levels[:count], vectors[:, :count]
    rows = np.arange(diag.shape[1])
    off = diag.copy()
    off[:, rows, rows] = 0.0
    padded = np.zeros((diag.shape[0] * diag.shape[1], vectors.shape[1]))
    padded[:size] = vectors
    diagonal = np.diagonal(diag, axis1=1, axis2=2).ravel()[:size, None]
    residuals = _band_product(off, sub, padded)[:size] + (diagonal - levels) * vectors
    # transposed so that each column's sum runs along a contiguous row, where numpy sums pairwise
    return np.sort(levels + np.sum((vectors * residuals).T, axis=1) / np.sum((vectors * vectors).T, axis=1))


def _lowest_levels(terms: list[tuple[np.ndarray, np.ndarray]], count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of H = sum_k kron(A_k, B_k), sorted, from its two parity bands."""
    levels = []
    for parity in (0, 1):
        diag, sub, size, floor = _band(terms, parity)
        m, d, _ = diag.shape
        band = None
        if (count + 2) * _KRYLOV_BLOCKS <= m * d // 2:
            photon, matter = _band_numbers(d, parity)
            cut = min(_START_CUT, d // 2)
            low = np.flatnonzero((photon < cut) & (matter < cut))
            band = _krylov_levels(diag, sub, size, count, low, floor)
        if band is None:  # the whole band as the basis: a dense solve, which misses nothing
            band = _dense_levels(diag, sub, size, count)
        levels.append(band)
    return np.sort(np.concatenate(levels))[:count]


def truncated_fock_spectrum(
    p: HopfieldParams, n_max: int, n_levels: int, rwa: bool = False
) -> QuantumSpectrum:
    """Diagonalize the two-mode Hamiltonian in a truncated Fock basis.

    Returns the lowest ``n_levels`` excitation energies (level minus ground
    state) together with the ground-state energy itself.  With ``rwa=True``
    the counter-rotating coupling terms are dropped, which removes the
    ground-state dressing and reduces the excitation energies to the
    first-order (linearized) branch values when ``D = 0``.

    Only the lowest ``n_levels + 1`` levels are computed (see the module
    notes); a parity band whose Krylov levels the inertia count rejects is
    solved whole.
    """
    n_max = _require_integer("n_max", n_max)
    n_levels = _require_integer("n_levels", n_levels)
    terms = _fock_terms(p, n_max, rwa=rwa)
    total = (n_max + 1) ** 2
    if not 1 <= n_levels <= total - 1:
        raise PolaritonError(
            f"n_levels must be in [1, {total - 1}] for n_max={n_max}, got {n_levels}"
        )
    levels = _lowest_levels(terms, n_levels + 1)
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
    other = truncated_fock_spectrum(partner, spectrum.truncation, len(spectrum.excitation_energies))
    ground = abs(other.ground_state_energy - spectrum.ground_state_energy)
    return max(ground, float(np.max(np.abs(other.excitation_energies - spectrum.excitation_energies))))
