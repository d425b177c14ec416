"""Many-dipole ensembles in a planar mirror cavity and their collective reduction.

The full system couples N identical dipoles to M cavity standing-wave modes:
dipole-mode blocks are velocity couplings weighted by the mode profile at
each dipole, dipole-dipole blocks are amplitude couplings from the
quasistatic interaction.  ``collective_reduce`` collapses each cavity mode's
partner to a single collective matter oscillator with coupling
``G = g_max sqrt(N_eff)`` and a dressed frequency shifted by the lattice sum
``g_shift``; ``full_vs_reduced_check`` quantifies how well that reduction
reproduces the exact polariton branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import PolaritonError
from .models import ModelVariant, branch_frequencies
from .units import (
    _MAX_DIPOLES,
    _MAX_MODES,
    UNITS,
    _as_array,
    _as_points,
    _as_vec,
    _reduced_strength,
    _require_at_least_one,
    _require_finite,
    _require_integer,
    _require_nonnegative,
    _require_positive,
    _unit_vector,
)

__all__ = [
    "FabryPerotSpec",
    "DipoleLattice",
    "CollectiveMode",
    "FullSystem",
    "FullVsReducedReport",
    "cubic_dipole_lattice",
    "build_full_system",
    "collective_reduce",
    "full_vs_reduced_check",
]

_CUTOFF_SPACINGS = 10.0
_PAIR_ROWS = 64  # rows per block of the pair-coupling kernel


def _check_dipole_count(n: int) -> None:
    if n == 0:
        raise PolaritonError("lattice has no dipoles")
    if n > _MAX_DIPOLES:
        raise PolaritonError(f"N={n} exceeds the desk-scale bound of {_MAX_DIPOLES} dipoles")


def _reject_coincident(positions: np.ndarray) -> None:
    """Raise on the first pair (i, j), i < j in row-major order, of equal positions, as ``_pairwise_couplings`` does.

    The positions are sorted lexicographically, stably, so each run of equal
    rows lists its dipoles in ascending order; the run whose first dipole
    comes first holds the first pair, that dipole and the next in the run.
    """
    order = np.lexsort(positions.T[::-1])
    ordered = positions[order]
    equal = np.flatnonzero(np.all(ordered[1:] == ordered[:-1], axis=1))
    if equal.size:
        k = equal[np.argmin(order[equal])]
        i, j = order[k], order[k + 1]
        raise PolaritonError(f"dipoles {i} and {j} overlap at {positions[i]}")


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``."""
    array = np.array(array)
    array.flags.writeable = False
    return array


def _parts(name: str, value, form: str, count: int) -> tuple:
    """The ``count`` parts of ``value``, or PolaritonError naming ``name`` and its ``form``."""
    parts = tuple(value) if np.iterable(value) else ()
    if len(parts) != count:
        raise PolaritonError(f"{name} must be {form}, got {value!r}")
    return parts


def _mode_label(mode) -> tuple:
    """A mode ``(n, k_parallel)`` as ``(int, (float, float))``, n a whole number >= 1."""
    n, k_par = _parts("mode", mode, "(n, k_parallel)", 2)
    return _require_integer("mode index n", n, 1), tuple(_as_vec("k_parallel", k_par, 2).tolist())


@dataclass(frozen=True)
class FabryPerotSpec:
    """Planar cavity of spacing ``L_cav`` with periodic lateral boundary.

    Modes are labeled by (n, k_parallel) with the standing-wave profile
    ``sin(n pi z / L_cav) exp(i k_par . r_par)``; z runs over (0, L_cav).
    """

    L_cav: float
    lateral_period: float
    modes: tuple
    epsilon_inf: float = 1.0

    def __post_init__(self):
        _require_positive("L_cav", self.L_cav)
        _require_positive("lateral_period", self.lateral_period)
        _require_at_least_one("epsilon_inf", self.epsilon_inf)
        modes = tuple(_mode_label(mode) for mode in self.modes)
        if len(modes) > _MAX_MODES:  # before the quadratic duplicate scan
            raise PolaritonError(f"M={len(modes)} exceeds the desk-scale bound of {_MAX_MODES} cavity modes")
        for i, mode in enumerate(modes):
            if mode in modes[:i]:
                raise PolaritonError(f"mode {mode!r} is listed twice")
        object.__setattr__(self, "modes", modes)

    @property
    def V_eff(self) -> float:
        """Mode volume: lateral period squared times L_cav/2 (sin^2 average)."""
        return self.lateral_period**2 * self.L_cav / 2.0

    def mode_frequency(self, mode) -> float:
        n, k_par = _mode_label(mode)
        kz = n * math.pi / self.L_cav
        k2 = kz * kz + k_par[0] ** 2 + k_par[1] ** 2
        return UNITS.hbar_c * math.sqrt(k2) / math.sqrt(self.epsilon_inf)

    def mode_profile(self, mode, r):
        """Profile of ``mode`` at one position ``r`` (3,) or at each row of an (N, 3) array."""
        n, k_par = _mode_label(mode)
        r = _require_finite("r", r)
        phase = k_par[0] * r[..., 0] + k_par[1] * r[..., 1]
        return np.sin(n * math.pi * r[..., 2] / self.L_cav) * np.exp(1j * phase)

    def g_max(self, f_dip_reduced: float) -> float:
        return 0.5 * math.sqrt(4.0 * math.pi * f_dip_reduced / self.V_eff)


@dataclass(frozen=True)
class DipoleLattice:
    positions: np.ndarray
    orientation: np.ndarray
    f_dip: object
    omega_dip: float
    spacing: float

    def __post_init__(self):
        # private read-only copies, so the cached pair couplings cannot go stale
        object.__setattr__(self, "positions", _read_only(_as_points("positions", self.positions)))
        object.__setattr__(self, "orientation", _read_only(_unit_vector("orientation", self.orientation)))
        _check_dipole_count(self.n_dip)
        _reject_coincident(self.positions)
        _require_positive("omega_dip", self.omega_dip)
        _require_positive("spacing", self.spacing)
        _reduced_strength(self.f_dip)

    @property
    def n_dip(self) -> int:
        return self.positions.shape[0]

    @property
    def f_dip_reduced(self) -> float:
        return _reduced_strength(self.f_dip)

    @cached_property
    def pair_couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (distance matrix, amplitude-coupling matrix g_ij), computed once per lattice.

        Each row block of ``_PAIR_ROWS`` dipoles is computed over the upper
        triangle only and mirrored, exactly, into the lower one.
        """
        dist, g = _pairwise_couplings(self)
        dist.flags.writeable = g.flags.writeable = False
        return dist, g


@dataclass(frozen=True)
class CollectiveMode:
    Omega_mat: float
    G: float
    N_eff: float
    g_shift: float
    mode: tuple
    g_shift_spread: float


def cubic_dipole_lattice(
    fp: FabryPerotSpec,
    spacing: float,
    shape: tuple,
    f_dip,
    omega_dip: float,
    orientation=(1.0, 0.0, 0.0),
) -> DipoleLattice:
    """Rectangular lattice of nx*ny*nz dipoles spanning the cavity gap.

    The nz layers sit at the midpoint heights z_k = (k - 1/2) L_cav / nz, so
    the sin^2 profile sums to exactly nz/2 per lateral site for mode indices
    n < nz; lateral sites are a square grid of the given spacing centered in
    the lateral period.  The lattice is simple cubic when L_cav = nz*spacing.
    """
    _require_positive("spacing", spacing)  # before it turns the positions into NaN
    nx, ny, nz = (_require_integer("lattice shape", v, 1) for v in _parts("lattice shape", shape, "(nx, ny, nz)", 3))
    _check_dipole_count(nx * ny * nz)
    xs = fp.lateral_period / 2.0 + spacing * (np.arange(nx) - (nx - 1) / 2.0)
    ys = fp.lateral_period / 2.0 + spacing * (np.arange(ny) - (ny - 1) / 2.0)
    zs = (np.arange(1, nz + 1) - 0.5) * fp.L_cav / nz
    z, y, x = np.meshgrid(zs, ys, xs, indexing="ij")  # x runs fastest, then y, then z
    return DipoleLattice(
        positions=np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1),
        orientation=orientation,
        f_dip=f_dip,
        omega_dip=omega_dip,
        spacing=spacing,
    )


def _pairwise_couplings(lattice: DipoleLattice) -> tuple[np.ndarray, np.ndarray]:
    """(distance matrix, amplitude-coupling matrix g_ij) with zero diagonals.

    ``g_ij = f 1/2 (1 - 3 (n.rhat)^2) / (r^3 omega_dip)`` for the shared
    orientation; raises on a zero distance, which distinct positions reach
    by underflow.  Both matrices are computed in triangular row blocks: the
    ``_PAIR_ROWS`` rows ``[s, e)`` over the columns ``j >= s`` only, whose
    transpose then fills the columns ``[s, e)`` of the rows below.  The
    mirror is exact, since ``x_j - x_i == -(x_i - x_j)`` in IEEE arithmetic
    only flips the sign of ``n.rhat``, and the temporaries stay the size of
    a block.
    """
    pos = lattice.positions
    n = pos.shape[0]
    nx, ny, nz = lattice.orientation
    scale = 0.5 * lattice.f_dip_reduced
    dist = np.empty((n, n))
    g = np.empty((n, n))
    for s in range(0, n, _PAIR_ROWS):
        e = min(s + _PAIR_ROWS, n)
        dx, dy, dz = (c[s:e, None] - c[s:] for c in pos.T)
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        np.fill_diagonal(d, 1.0)  # entry (r, r) pairs dipole s + r with itself
        if not d.all():  # the first hit in row-major order lies above the diagonal
            i, j = np.argwhere(d == 0.0)[0] + s
            raise PolaritonError(f"dipoles {i} and {j} overlap at {pos[i]}")
        cos_align = (dx * nx + dy * ny + dz * nz) / d
        ang = 1.0 - 3.0 * cos_align**2
        block = scale * ang / (d**3 * lattice.omega_dip)
        dist[s:e, s:], dist[s:, s:e] = d, d.T
        g[s:e, s:], g[s:, s:e] = block, block.T
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(g, 0.0)
    return dist, g


def _gauge(k_dd: np.ndarray, c: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The dipole-gauge matrix [[K_dd + C C^H, C Omega], [Omega C^H, Omega^2]]."""
    n, dim = k_dd.shape[0], k_dd.shape[0] + omega.shape[0]
    dressed = c * omega
    gauge = np.empty((dim, dim), dtype=np.result_type(k_dd, c, omega))
    np.matmul(c, c.conj().T, out=gauge[:n, :n])
    gauge[:n, :n] += k_dd
    gauge[:n, n:] = dressed
    gauge[n:, :n] = dressed.conj().T
    gauge[n:, n:] = np.diag(omega**2)
    return gauge


def _centrosymmetric_blocks(k_dd: np.ndarray, c: np.ndarray, omega: np.ndarray) -> list | None:
    """The blocks of the gauge matrix K' even and odd under inversion, or None when K' is not invariant.

    Inversion P = diag(J, S) reverses the dipole order and multiplies each
    mode by the sign s = +-1 that takes its column of C nearest its reverse.
    The blocks, over the pairs (e_i + s e_{N-1-i})/sqrt(2) and an odd N's
    middle dipole, read the first rows and the lower triangle of K_dd, as
    eigvalsh reads K', so they are those of a K~ = P K~ P with ||K' - K~||_2
    <= drift, and by Weyl's inequality no level moves further.  The split is
    taken when drift <= eps max|diag K'| <= eps ||K'||_2, inside eigvalsh's own backward error.
    """
    if np.iscomplexobj(c):
        return None
    n, flipped, omega_max = k_dd.shape[0], c[::-1], float(np.max(omega, initial=0.0))
    even = np.sum((flipped - c) ** 2, axis=0) <= np.sum((flipped + c) ** 2, axis=0)
    e = float(np.linalg.norm(c - np.where(even, flipped, -flipped)))  # ||C - J C S||_F
    # sqrt(2) ||K_dd - J K_dd^T J||_F bounds the departure of K_dd's lower triangle from its mirror image
    drift = math.sqrt(2.0) * np.linalg.norm(k_dd - k_dd.T[::-1, ::-1]) + e * (2.0 * np.linalg.norm(c) + e + omega_max)
    if drift > np.finfo(float).eps * max(np.max(np.abs(np.diagonal(k_dd) + np.sum(c * c, axis=1))), omega_max**2):
        return None
    half, blocks = math.sqrt(0.5), []
    for sign, modes in ((1.0, even), (-1.0, ~even)):
        rows = (n + 1) // 2 if sign > 0 else n // 2
        dipoles = k_dd[:rows, :rows] + sign * k_dd[::-1][:rows, :rows].T
        coupling = half * (c[:rows, modes] + sign * flipped[:rows, modes])
        if 2 * rows > n:  # the middle dipole, which each mirror sum counts twice
            dipoles[-1], coupling[-1] = half * dipoles[-1], half * coupling[-1]
            dipoles[:, -1] *= half
        blocks.append(_gauge(dipoles, coupling, omega[modes]))
    return blocks


@dataclass(frozen=True)
class FullSystem:
    """Normal-mode system of N dipoles and M cavity modes, held as three blocks.

    Over [dipoles..., modes...] the equations of motion are x'' + K x + J x' = 0
    with K = [[K_dd, 0], [0, diag(Omega^2)]] and J = [[0, C], [-C^H, 0]]: the
    dipole stiffness ``K_dd`` (N x N, real symmetric), the dipole-mode velocity couplings
    ``coupling`` C (N x M, real when every mode profile is real) and the mode
    frequencies ``mode_frequencies`` Omega (M,).
    """

    K_dd: np.ndarray
    coupling: np.ndarray
    mode_frequencies: np.ndarray

    def __post_init__(self):
        # lists too; NaN or inf would end in LAPACK's "did not converge"
        object.__setattr__(self, "K_dd", _require_finite("block K_dd", self.K_dd))
        object.__setattr__(self, "coupling", _as_array("block coupling", self.coupling))  # complex stays complex
        object.__setattr__(self, "mode_frequencies", _require_positive("mode frequency", self.mode_frequencies))
        n, m = self.coupling.shape if self.coupling.ndim == 2 else (0, 0)  # a 0-d block has no length
        shapes = (self.K_dd.shape, self.coupling.shape, self.mode_frequencies.shape)
        if n == 0 or shapes != ((n, n), (n, m), (m,)):
            raise PolaritonError(
                "need a nonempty N x N K_dd, an N x M coupling and M mode frequencies, "
                f"got shapes {shapes[0]}, {shapes[1]} and {shapes[2]}"
            )
        c = self.coupling  # a complex one's real and imaginary parts side by side, so a grid row is a dipole
        _require_finite("block coupling", np.concatenate((c.real, c.imag), axis=1) if np.iscomplexobj(c) else c)
        # eigvalsh reads one triangle: an asymmetric K_dd would be solved as another matrix
        k_dd = self.K_dd
        if not np.array_equal(k_dd, k_dd.T):  # the exact test settles a built system in one pass
            if float(np.max(np.abs(k_dd - k_dd.T))) > 1e-12 * max(float(np.max(np.abs(k_dd))), 1.0):
                raise PolaritonError("stiffness block K_dd is not symmetric")

    @property
    def n_dip(self) -> int:
        return self.K_dd.shape[0]

    @property
    def n_modes(self) -> int:
        return self.mode_frequencies.shape[0]

    def eigenfrequencies(self) -> np.ndarray:
        """The N + M positive normal-mode frequencies, real and sorted ascending.

        The dipole-gauge coordinate q = (a' - C^H d)/Omega of the modes turns
        x'' + K x + J x' = 0 into x'' + K' x = 0 with the Hermitian
        K' = [[K_dd + C C^H, C Omega], [Omega C^H, Omega^2]]
        (De Bernardis et al., PRA 98, 053819 (2018)), so the squared
        frequencies are the eigenvalues of K'; it is real when C is.  K' is
        solved in the invariant blocks it has: if K_dd = w^2 I, the thin QR
        C = Q R leaves N - min(N, M) levels at w^2 and the gauge matrix of
        (w^2 I, R, Omega); else, if inversion leaves K' invariant, its even and
        odd blocks (``_centrosymmetric_blocks``; Cantoni & Butler, Linear
        Algebra Appl. 13, 275 (1976)); else the whole of K'.  The Schur
        complement of Omega^2 in K' is K_dd, so K' and K_dd have the same
        number of non-positive eigenvalues: a dipole stiffness block that is
        not positive definite has no real spectrum and is rejected.
        """
        k_dd, c, omega = self.K_dd, self.coupling, self.mode_frequencies
        diag = np.diagonal(k_dd)
        if np.all(diag == diag[0]) and np.count_nonzero(k_dd) == np.count_nonzero(diag):
            r = np.linalg.qr(c, mode="r")
            bright = np.linalg.eigvalsh(_gauge(diag[0] * np.eye(r.shape[0]), r, omega))
            squared = np.sort(np.concatenate([np.full(self.n_dip - r.shape[0], diag[0]), bright]))
        elif (blocks := _centrosymmetric_blocks(k_dd, c, omega)) is not None:
            squared = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
        else:
            squared = np.linalg.eigvalsh(_gauge(k_dd, c, omega))
        if squared[0] <= 0.0:
            lowest = float(np.linalg.eigvalsh(self.K_dd)[0])
            raise PolaritonError(
                "stiffness block K_dd is not positive definite (lowest eigenvalue "
                f"{lowest:.6g} eV^2): the system is unstable and has no real normal modes"
            )
        return np.sqrt(squared)


def _bright_band_spread(full: FullSystem, alpha: int, omega_dip: float) -> float:
    """Spread of the dipole-dipole band that mode ``alpha`` sees, in eV.

    With the bright state b = C[:, alpha]/|C[:, alpha]| (the velocity
    couplings of that mode) and the amplitude couplings
    G = (K_dd - omega_dip^2)/(2 omega_dip), this is sqrt(|G b|^2 - (b^H G b)^2):
    the |c_k|^2-weighted standard deviation of the eigenvalues of G, which the
    collective reduction replaces by one shift.
    """
    bright = full.coupling[:, alpha]
    bright = bright / np.linalg.norm(bright)
    shifted = (full.K_dd @ bright - omega_dip * omega_dip * bright) / (2.0 * omega_dip)
    mean = np.vdot(bright, shifted).real
    return math.sqrt(max(float(np.vdot(shifted, shifted).real) - mean * mean, 0.0))


def _check_between_mirrors(lattice: DipoleLattice, fp: FabryPerotSpec) -> None:
    z = lattice.positions[:, 2]
    if np.any(z <= 0.0) or np.any(z >= fp.L_cav):
        raise PolaritonError("all dipoles must lie strictly between the mirrors (0 < z < L_cav)")


def build_full_system(
    lattice: DipoleLattice, fp: FabryPerotSpec, include_dipole_dipole: bool = True
) -> FullSystem:
    """Assemble the N-dipole + M-mode coupled system.

    Dipole-mode couplings are profile-weighted velocity terms; dipole-dipole
    couplings are quasistatic amplitude terms over all pairs (no cutoff).
    The pair couplings are read from the lattice, which computes them once,
    and only when they are included.
    """
    _check_between_mirrors(lattice, fp)
    n = lattice.n_dip
    wd = lattice.omega_dip
    if include_dipole_dipole:
        k_dd = 2.0 * wd * lattice.pair_couplings[1]
        np.fill_diagonal(k_dd, wd * wd)
    else:
        k_dd = wd * wd * np.eye(n)
    gmax = fp.g_max(lattice.f_dip_reduced)
    coupling = np.empty((n, len(fp.modes)), dtype=complex)
    for alpha, mode in enumerate(fp.modes):
        coupling[:, alpha] = 2.0 * (gmax * fp.mode_profile(mode, lattice.positions))
    if not np.any(coupling.imag):
        coupling = coupling.real
    frequencies = np.array([fp.mode_frequency(mode) for mode in fp.modes])
    return FullSystem(K_dd=k_dd, coupling=coupling, mode_frequencies=frequencies)


def collective_reduce(
    lattice: DipoleLattice, fp: FabryPerotSpec, mode, include_dipole_dipole: bool = True
) -> CollectiveMode:
    """Collapse the lattice onto one collective oscillator for one cavity mode.

    ``N_eff`` is the profile-squared sum; the collective coupling is
    ``g_max sqrt(N_eff)``.  ``g_shift`` is the lattice sum of phased
    dipole-dipole couplings within 10 lattice spacings of each
    reference dipole, averaged over reference dipoles; the spread field
    reports the largest deviation of a single reference dipole's sum from
    that average (a homogeneity diagnostic).
    """
    _check_between_mirrors(lattice, fp)
    mode = _mode_label(mode)
    if mode not in fp.modes:
        raise PolaritonError(f"mode {mode!r} is not among the cavity's modes")
    profile = fp.mode_profile(mode, lattice.positions)
    n_eff = float(np.sum(np.abs(profile) ** 2))
    if n_eff == 0.0:
        raise PolaritonError("mode profile vanishes on every dipole; no collective mode")
    gmax = fp.g_max(lattice.f_dip_reduced)
    big_g = gmax * math.sqrt(n_eff)
    wd = lattice.omega_dip
    if include_dipole_dipole and lattice.n_dip > 1:
        dist, g_pairs = lattice.pair_couplings
        cutoff = _CUTOFF_SPACINGS * lattice.spacing * (1.0 + 1e-12)
        near = np.where(dist <= cutoff, g_pairs, 0.0)  # the diagonal of g_pairs is zero
        # sum over neighbors j of each reference i, phased by k_par.(r_i - r_j), in real products
        phase = np.exp(1j * (lattice.positions[:, :2] @ np.array(mode[1])))
        sums = phase * (near @ phase.real - 1j * (near @ phase.imag))
        mean = complex(np.mean(sums))
        g_shift = mean.real
        spread = float(np.max(np.abs(sums - mean)))
    else:
        g_shift = 0.0
        spread = 0.0
    radicand = wd * wd + 2.0 * wd * g_shift
    if radicand <= 0.0:
        raise PolaritonError(
            f"dipole-dipole shift g_shift={g_shift:.6g} eV destabilizes the collective mode "
            f"(Omega_mat^2 = {radicand:.6g} eV^2 <= 0)"
        )
    return CollectiveMode(
        Omega_mat=math.sqrt(radicand),
        G=big_g,
        N_eff=n_eff,
        g_shift=g_shift,
        mode=mode,
        g_shift_spread=spread,
    )


@dataclass(frozen=True)
class FullVsReducedReport:
    max_rel_deviation: float
    omega_full: tuple
    omega_reduced: tuple
    passed: bool
    collective: CollectiveMode


def full_vs_reduced_check(
    lattice: DipoleLattice,
    fp: FabryPerotSpec,
    mode,
    tolerance: float = 1e-2,
    include_dipole_dipole: bool = True,
) -> FullVsReducedReport:
    """Compare the exact polariton branches against the collective reduction.

    The full system's eigenfrequencies nearest the reduced model's two
    branches are matched up and the maximum relative deviation reported.
    """
    _require_nonnegative("tolerance", tolerance)
    cm = collective_reduce(lattice, fp, mode, include_dipole_dipole=include_dipole_dipole)
    omega_cav = fp.mode_frequency(mode)
    plus, minus = branch_frequencies(ModelVariant.MOC, omega_cav, cm.Omega_mat, cm.G)
    targets = (float(plus), float(minus))
    full = build_full_system(lattice, fp, include_dipole_dipole=include_dipole_dipole)
    freqs = full.eigenfrequencies()
    picked = tuple(float(freqs[np.argmin(np.abs(freqs - t))]) for t in targets)
    dev = max(abs(p - t) / t for p, t in zip(picked, targets))
    return FullVsReducedReport(
        max_rel_deviation=dev,
        omega_full=picked,
        omega_reduced=targets,
        passed=dev <= tolerance,
        collective=cm,
    )
