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
products of the nonzero factor entries alone.  A dense ``eigh`` of each band's
states with photon and matter numbers below a cut bounds its levels from
above, which splits the wanted levels into a share per band, and gives a start
near them.  A band takes Krylov for its share if its basis, at most
``_KRYLOV_BLOCKS`` blocks of share + 2 columns, fits in half of it: a start
that has not converged grows a shift-and-invert block Krylov basis from a
shift that a block Cholesky factorization proves lies below the spectrum.  The
Sylvester inertia of each band's block LDL^T at one common threshold, just
above the levels found, certifies that none was missed; a band with more
levels below it is solved again, and then whole.  The count stops at the first
pivot after which the rest of the band is strictly diagonally dominant above
the threshold, so positive definite (Gershgorin), adding no eigenvalue below
it (Sylvester).  A band over that budget or whose basis fills, or both when no
split fits, is solved whole, each level refined by its Rayleigh quotient.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import PolaritonError
from .units import _MAX_FOCK_ROWS, _require_integer, _require_nonnegative, _require_positive

# Krylov stops when every wanted Ritz residual is at most this, times the largest diagonal entry
_RESIDUAL = 1e-10
# the inertia count stops where the rest of the band is diagonally dominant by more than this,
# times the largest diagonal entry: far above the round-off of row sums of 41 entries
_ROUNDOFF = 1e-12
# the most blocks of share + 2 columns a band's Krylov basis holds; it takes Krylov only if they fit in half of it
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
    off-diagonal row sum, over the rows of super-blocks j and on; every band
    entry is a sum of products of factor entries >= 0, so no absolute value is taken.
    """
    d = terms[0][0].shape[0]
    m = (d + 1) // 2
    layout, phantom = _scatter_layout(d, parity, tuple((f != 0.0).tobytes() for term in terms for f in term))
    flat = np.zeros((2 * m - 1) * d * d)
    for (a, b), (src_a, src_b, dst) in zip(terms, layout):
        flat[dst] += a.ravel()[src_a] * b.ravel()[src_b]
    diag, sub = flat[: m * d * d].reshape(m, d, d), flat[m * d * d :].reshape(m - 1, d, d)
    rows, sub_rows, sub_cols = diag.sum(axis=2), sub.sum(axis=2), sub.sum(axis=1)
    # twice a bound on the largest row sum, so above every level
    bound = rows.max() + sub_rows.max() + sub_cols.max()
    diagonal = np.diagonal(diag, axis1=1, axis2=2)  # a view: the phantom rows read 0 here, 2 * bound below
    radii = rows - diagonal  # the absolute off-diagonal row sums
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


def _start_block(diag: np.ndarray, sub: np.ndarray, size: int, low: np.ndarray, width: int) -> tuple:
    """The band's scaling exponent, and the rows, levels and eigenvectors of its principal block, scaled.

    The block holds the rows ``low`` and the ``width`` rows of lowest diagonal
    (a soft mode puts low levels beyond the cut).  By Cauchy interlacing each
    of its levels bounds the band's of the same rank from above.
    """
    exponent = math.frexp(float(np.max(np.abs(diag))))[1]  # scaled exactly to entries of at most 1
    diagonal = np.diagonal(diag, axis1=1, axis2=2).ravel()
    principal = np.union1d(low, np.argsort(diagonal[:size], kind="stable")[:width])
    blocks = principal[-1] // diag.shape[1] + 1
    block = np.ldexp(_dense(diag[:blocks], sub[: blocks - 1])[np.ix_(principal, principal)], -exponent)
    return (exponent, principal, *np.linalg.eigh(block))


def _ritz_pairs(projected: np.ndarray, rows: np.ndarray, products: np.ndarray, share: int, gap: float):
    """Largest residual and vectors of the lowest ``share`` Ritz pairs on orthonormal ``rows``, with band ``products``.

    Ritz values closer than ``2 * gap`` are one cluster, reported whole; None
    if it fills the basis.
    """
    ritz, vectors = np.linalg.eigh(projected)  # reads the lower triangle
    found = share
    while found < len(ritz) and ritz[found] - ritz[found - 1] <= 2.0 * gap:
        found += 1
    if found == len(ritz):
        return None
    wanted = vectors[:, :found].T
    ritz_vectors = wanted @ rows
    misfit = wanted @ products - ritz[:found, None] * ritz_vectors
    return float(np.max(np.linalg.norm(misfit, axis=1))), ritz_vectors


def _krylov_levels(
    diag: np.ndarray, sub: np.ndarray, size: int, share: int, start: tuple, scale: float
) -> np.ndarray | None:
    """The lowest ``share`` levels of a band and any clustered just above them, or None if its basis fills.

    Pairs converge at residuals of ``_RESIDUAL`` times ``scale``, the largest
    diagonal entry.  The start, the lowest ``share + 2`` eigenvectors of the
    principal block of ``_start_block``, is checked alone first; only if it
    has not converged is a shift factored and a shift-and-invert block Krylov
    basis grown from it, up to ``_KRYLOV_BLOCKS`` blocks.  A last Rayleigh-Ritz
    pass refines the converged pairs; the caller certifies them.
    """
    exponent, principal, levels, near = start
    diag, sub, scale = np.ldexp(diag, -exponent), np.ldexp(sub, -exponent), math.ldexp(scale, -exponent)
    n = diag.shape[0] * diag.shape[1]
    width, limit, tol = share + 2, _KRYLOV_BLOCKS * (share + 2), _RESIDUAL * scale
    gap = 10.0 * tol
    block = np.zeros((n, width))
    block[principal] = near[:, :width]
    products = _band_product(diag, sub, block).T
    pairs = _ritz_pairs(products @ block, block.T, products, share, gap)
    if pairs is None or pairs[0] > tol:
        # step down from the block's lowest level until the factorization proves the shift is below the spectrum
        step = 1e-3 * scale
        while (factor := _ldl(diag, sub, levels[0] - step))[2]:
            step *= 4.0
        # deterministic start, perturbed off the phantom rows so that the next block stays independent of it
        perturbed = 1e-10 * np.cos(np.outer(np.arange(n), np.arange(1, width + 1)))
        perturbed[size:] = 0.0
        block = np.linalg.qr(perturbed + block)[0]
        rows, products, projected = np.empty((limit, n)), np.empty((limit, n)), np.empty((limit, limit))
        k = steps = check = 0
        while k + width <= limit:
            rows[k : k + width] = block.T
            products[k : k + width] = _band_product(diag, sub, block).T
            projected[k : k + width, : k + width] = products[k : k + width] @ rows[: k + width].T
            k += width
            steps += 1
            if steps >= check and (pairs := _ritz_pairs(projected[:k, :k], rows[:k], products[:k], share, gap)):
                residual = pairs[0]
                if residual <= tol:
                    break
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
        else:
            return None
    q = np.linalg.qr(pairs[1].T)[0]
    return np.ldexp(np.linalg.eigvalsh(q.T @ _band_product(diag, sub, q)), exponent)


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
    """The lowest ``count`` eigenvalues of H = sum_k kron(A_k, B_k), sorted, from its two parity bands.

    The principal blocks' levels split the lowest ``count`` into a share per
    band, and each band solves for its share, one after the other: by Krylov
    within ``budget``, otherwise whole (a dense solve, which misses nothing).
    One inertia count per band, at the ``count``-th level found plus the
    cluster gap, certifies them; a band with more levels below it than it found
    is solved again for that many, once, by the same rule, and then whole.
    """
    bands = [_band(terms, parity) for parity in (0, 1)]
    m, d, _ = bands[0][0].shape
    budget = m * d // 2 // _KRYLOV_BLOCKS - 2  # the most levels a band solves by Krylov
    if count > 2 * budget:  # no split keeps both bands in budget
        return np.sort(np.concatenate([_dense_levels(*band[:3], count) for band in bands]))[:count]
    cut = min(_START_CUT, d // 2)
    starts = []
    for parity, (diag, sub, size, _) in enumerate(bands):
        photon, matter = _band_numbers(d, parity)
        starts.append(_start_block(diag, sub, size, np.flatnonzero((photon < cut) & (matter < cut)), count + 2))
    bounds = [np.ldexp(start[2][:count], start[0]) for start in starts]
    odd = np.count_nonzero(np.argsort(np.concatenate(bounds), kind="stable")[:count] >= len(bounds[0]))
    scale = max(float(np.max(np.diagonal(diag, axis1=1, axis2=2).ravel()[:size])) for diag, _, size, _ in bands)
    levels, whole = [], []
    for band, share, start in zip(bands, (count - odd, odd), starts):
        found = None if share > budget else _krylov_levels(*band[:3], share, start, scale) if share else np.empty(0)
        whole.append(found is None)
        levels.append(_dense_levels(*band[:3], count) if found is None else found)
    threshold = np.sort(np.concatenate(levels))[count - 1] + 10.0 * _RESIDUAL * scale  # the cluster gap
    for i, ((diag, sub, size, floor), start) in enumerate(zip(bands, starts)):
        if whole[i]:
            continue
        below, returned = _ldl(diag, sub, threshold, floor)[2], np.count_nonzero(levels[i] < threshold)
        if below != returned:
            found = _krylov_levels(diag, sub, size, below, start, scale) if returned < below <= budget else None
            if found is None or np.count_nonzero(found < threshold) != below:
                found = _dense_levels(diag, sub, size, count)
            levels[i] = found
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
    notes): each parity band's share by block Krylov, in at most
    ``_KRYLOV_BLOCKS`` blocks, where they fit in half the band, and by a
    dense solve otherwise; one inertia count per band certifies them.
    """
    n_max = _require_integer("n_max", n_max, 2)
    n_levels = _require_integer("n_levels", n_levels, 1)
    terms = _fock_terms(p, n_max, rwa=rwa)
    total = (n_max + 1) ** 2
    if n_levels > total - 1:
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


def _frame_partner(p: HopfieldParams) -> HopfieldParams:
    """The dipole-gauge partner of ``p`` (see :func:`frame_equivalence_check`), where it exists."""
    wc, wm = p.omega_cav, p.omega_mat
    g_squared = p.g_qed**2 + p.D * (wc - wm) * (wc + wm) / wm
    if g_squared < 0.0:
        raise PolaritonError(
            f"no dipole-gauge frame partner for D = {p.D:.6g} eV, omega_cav = {wc:.6g} eV, "
            f"omega_mat = {wm:.6g} eV: g^2 + D (omega_cav^2 - omega_mat^2) / omega_mat = {g_squared:.6g} eV^2 < 0"
        )
    return HopfieldParams(wm, wc, math.sqrt(g_squared), p.D * wc / wm)


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
    other = truncated_fock_spectrum(_frame_partner(p), spectrum.truncation, len(spectrum.excitation_energies))
    ground = abs(other.ground_state_energy - spectrum.ground_state_energy)
    return max(ground, float(np.max(np.abs(other.excitation_energies - spectrum.excitation_energies))))
