"""Molecular ensembles in a planar cavity: full system vs collective reduction."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polariton_lab import PolaritonError, ensemble
from polariton_lab.ensemble import (
    DipoleLattice,
    FabryPerotSpec,
    FullSystem,
    build_full_system,
    collective_reduce,
    cubic_dipole_lattice,
    full_vs_reduced_check,
)
from polariton_lab.units import UNITS

_F_DIP = 14099.1876  # ~15 D at 3 eV, e^2/m_p units
_MODE = (1, (0.0, 0.0))


def _fp(L_cav=206.64, period=10.0, modes=(_MODE,)):
    return FabryPerotSpec(L_cav=L_cav, lateral_period=period, modes=modes)


# ---------------------------------------------------------------------------
# cavity spec


def test_mode_volume_is_half_the_slab():
    fp = _fp(L_cav=100.0, period=20.0)
    assert fp.V_eff == pytest.approx(20.0**2 * 50.0, rel=1e-14)


def test_fundamental_mode_frequency():
    fp = _fp(L_cav=206.64)
    expected = UNITS.hbar_c * math.pi / 206.64
    assert fp.mode_frequency(_MODE) == pytest.approx(expected, rel=1e-12)
    assert fp.mode_frequency(_MODE) == pytest.approx(3.0, rel=1e-3)
    # background dielectric slows the mode down
    slow = FabryPerotSpec(L_cav=206.64, lateral_period=10.0, modes=(_MODE,), epsilon_inf=4.0)
    assert slow.mode_frequency(_MODE) == pytest.approx(expected / 2.0, rel=1e-12)


def test_mode_profile_standing_wave():
    fp = _fp(L_cav=100.0)
    assert fp.mode_profile(_MODE, (0.0, 0.0, 50.0)) == pytest.approx(1.0, rel=1e-14)
    assert fp.mode_profile(_MODE, (0.0, 0.0, 25.0)) == pytest.approx(
        math.sin(math.pi / 4.0), rel=1e-14
    )
    # in-plane momentum shows up as a phase, not a magnitude change
    mode_k = (1, (0.1, 0.0))
    fp_k = _fp(L_cav=100.0, modes=(mode_k,))
    val = fp_k.mode_profile(mode_k, (5.0, 0.0, 50.0))
    assert abs(val) == pytest.approx(1.0, rel=1e-14)
    assert val == pytest.approx(complex(math.cos(0.5), math.sin(0.5)), rel=1e-14)


def test_cavity_spec_rejects_a_repeated_mode():
    # the two labels collide once normalized: both are (1, (0.0, 0.0))
    with pytest.raises(PolaritonError, match=r"mode \(1, \(0.0, 0.0\)\) is listed twice"):
        FabryPerotSpec(L_cav=100.0, lateral_period=10.0, modes=((1, (0, 0)), (1.0, [0.0, 0.0])))


def test_cavity_spec_bounds_the_mode_count():
    modes = [(n, (0.0, 0.0)) for n in range(1, 502)]
    assert len(_fp(modes=modes[:500]).modes) == 500
    with pytest.raises(PolaritonError, match="M=501 exceeds the desk-scale bound of 500 cavity modes"):
        _fp(modes=modes)


def test_single_dipole_coupling_bound():
    fp = _fp()
    f_red = DipoleLattice(
        positions=np.array([[5.0, 5.0, 103.32]]),
        orientation=(1.0, 0.0, 0.0),
        f_dip=_F_DIP,
        omega_dip=3.0,
        spacing=1.0,
    ).f_dip_reduced
    assert fp.g_max(f_red) == pytest.approx(
        0.5 * math.sqrt(4.0 * math.pi * f_red / fp.V_eff), rel=1e-14
    )


def test_cavity_spec_validation():
    with pytest.raises(PolaritonError):
        FabryPerotSpec(L_cav=-1.0, lateral_period=10.0, modes=())
    with pytest.raises(PolaritonError):
        FabryPerotSpec(L_cav=10.0, lateral_period=10.0, modes=(), epsilon_inf=0.5)
    with pytest.raises(PolaritonError):
        FabryPerotSpec(L_cav=10.0, lateral_period=10.0, modes=((0, (0.0, 0.0)),))
    with pytest.raises(PolaritonError):
        FabryPerotSpec(L_cav=10.0, lateral_period=10.0, modes=((1, (0.0,)),))


# ---------------------------------------------------------------------------
# lattice construction


def test_cubic_lattice_layout():
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (2, 2, 3), _F_DIP, 3.0)
    assert lat.n_dip == 12
    zs = np.unique(lat.positions[:, 2])
    assert zs == pytest.approx([10.0, 30.0, 50.0], rel=1e-14)
    xs = np.unique(lat.positions[:, 0])
    assert xs == pytest.approx([3.5, 6.5], rel=1e-14)  # centered on period/2


def test_midpoint_layers_average_the_profile_exactly():
    # mid-height z layers make sum(sin^2) come out at exactly N/2
    fp = _fp(L_cav=60.0)
    for shape in ((1, 1, 20), (3, 3, 3), (2, 2, 2)):
        lat = cubic_dipole_lattice(fp, 3.0, shape, _F_DIP, 3.0)
        cm = collective_reduce(lat, fp, _MODE, include_dipole_dipole=False)
        n = lat.n_dip
        assert cm.N_eff == pytest.approx(n / 2.0, rel=1e-13)
        assert cm.G == pytest.approx(fp.g_max(lat.f_dip_reduced) * math.sqrt(n / 2.0), rel=1e-13)


def test_single_dipole_at_antinode():
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (1, 1, 1), _F_DIP, 3.0)
    assert lat.positions[0, 2] == pytest.approx(30.0, rel=1e-14)
    cm = collective_reduce(lat, fp, _MODE)
    assert cm.N_eff == pytest.approx(1.0, rel=1e-14)
    assert cm.G == pytest.approx(fp.g_max(lat.f_dip_reduced), rel=1e-14)
    assert cm.g_shift == 0.0
    assert cm.g_shift_spread == 0.0


def test_lattice_validation():
    fp = _fp()
    with pytest.raises(PolaritonError):
        cubic_dipole_lattice(fp, 3.0, (0, 1, 1), _F_DIP, 3.0)
    with pytest.raises(PolaritonError):
        DipoleLattice(
            positions=np.array([[0.0, 0.0]]),
            orientation=(1.0, 0.0, 0.0),
            f_dip=_F_DIP,
            omega_dip=3.0,
            spacing=1.0,
        )
    with pytest.raises(PolaritonError):
        DipoleLattice(
            positions=np.array([[0.0, 0.0, 1.0]]),
            orientation=(1.0, 0.0, 0.0),
            f_dip=-2.0,
            omega_dip=3.0,
            spacing=1.0,
        )


def test_cubic_lattice_positions_match_the_nested_loop_order():
    fp = _fp(L_cav=60.0, period=30.0)
    spacing, (nx, ny, nz) = 3.0, (4, 3, 5)
    lat = cubic_dipole_lattice(fp, spacing, (nx, ny, nz), _F_DIP, 3.0)
    xs = fp.lateral_period / 2.0 + spacing * (np.arange(nx) - (nx - 1) / 2.0)
    ys = fp.lateral_period / 2.0 + spacing * (np.arange(ny) - (ny - 1) / 2.0)
    zs = (np.arange(1, nz + 1) - 0.5) * fp.L_cav / nz
    expected = np.array([(x, y, z) for z in zs for y in ys for x in xs])
    np.testing.assert_array_equal(lat.positions, expected)


def test_lattice_keeps_read_only_copies_of_its_inputs():
    positions = np.array([[1.0, 1.0, 1.0], [4.0, 1.0, 1.0], [1.0, 5.0, 2.0]])
    orientation = np.array([0.6, 0.8, 0.0])
    lat = DipoleLattice(positions, orientation, _F_DIP, 3.0, 3.0)
    dist, g = lat.pair_couplings
    kept = (lat.positions.copy(), lat.orientation.copy(), dist.copy(), g.copy())
    positions[0] = (9.0, 9.0, 9.0)
    orientation[:] = (0.0, 0.0, 1.0)
    # the caller's arrays moved; the lattice and its pair data did not
    assert lat.pair_couplings is lat.pair_couplings
    for array, before in zip((lat.positions, lat.orientation, *lat.pair_couplings), kept, strict=True):
        np.testing.assert_array_equal(array, before)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    moved = DipoleLattice(positions, orientation, _F_DIP, 3.0, 3.0)
    assert not np.array_equal(moved.pair_couplings[1], g)


# ---------------------------------------------------------------------------
# full system assembly


def _dense_k_and_j(full):
    """K and J of x'' + K x + J x' = 0 over [dipoles..., modes...], from the three blocks."""
    n, dim = full.n_dip, full.n_dip + full.n_modes
    big_k = np.zeros((dim, dim), dtype=complex)
    big_j = np.zeros((dim, dim), dtype=complex)
    big_k[:n, :n] = full.K_dd
    big_k[n:, n:] = np.diag(full.mode_frequencies**2)
    big_j[:n, n:] = full.coupling
    big_j[n:, :n] = -full.coupling.conj().T
    return big_k, big_j


def _companion_eigenfrequencies(full):
    """Positive-frequency roots of det(K - w^2 - i w J) from the general 2n companion eig."""
    big_k, big_j = _dense_k_and_j(full)
    n = big_k.shape[0]
    comp = np.zeros((2 * n, 2 * n), dtype=complex)
    comp[:n, n:] = np.eye(n)
    comp[n:, :n] = -big_k
    comp[n:, n:] = -big_j
    freqs = 1j * np.linalg.eigvals(comp)  # x ~ exp(-i w t)
    freqs = freqs[freqs.real > 0.0]
    return freqs[np.argsort(freqs.real)]


def _linearized_eigenfrequencies(full):
    """Positive roots of det(K - w^2 - i w J) from the 2n Hermitian linearization.

    With K = L L^H, [[0, L^H], [L, -iJ]] is Hermitian with those 2n roots as
    its eigenvalues (Tisseur & Meerbergen, SIAM Rev. 43, 235 (2001)); its
    determinant is (-1)^n |det L|^2 whatever J is, so exactly n are positive.
    """
    big_k, big_j = _dense_k_and_j(full)
    n = big_k.shape[0]
    chol = np.linalg.cholesky(big_k)
    lin = np.zeros((2 * n, 2 * n), dtype=complex)
    lin[:n, n:] = chol.conj().T
    lin[n:, :n] = chol
    lin[n:, n:] = -1j * big_j
    return np.linalg.eigvalsh(lin)[n:]


_TILTED_MODES = (_MODE, (1, (0.1, 0.05)), (2, (0.0, 0.0)))


def test_dipole_gauge_solve_matches_the_companion_eig():
    # N = 128 with dipole-dipole blocks on; the k_parallel != 0 mode makes the
    # couplings complex, and without modes the solve is the dipole-dipole block alone
    for modes in (_TILTED_MODES, ()):
        fp = _fp(L_cav=60.0, period=30.0, modes=modes)
        lat = cubic_dipole_lattice(fp, 3.0, (8, 8, 2), _F_DIP, 3.0)
        full = build_full_system(lat, fp)
        assert np.iscomplexobj(full.coupling) == bool(modes)
        freqs = full.eigenfrequencies()
        reference = _companion_eigenfrequencies(full)
        assert freqs.dtype == np.float64
        assert freqs.shape == reference.shape == (full.n_dip + full.n_modes,)
        assert np.max(np.abs(freqs - reference) / np.abs(reference)) <= 1e-12


@pytest.mark.parametrize("dipole_dipole", [False, True])
def test_dipole_gauge_solve_matches_the_hermitian_linearization(dipole_dipole):
    # the (5, 5, 20) lattice of the ensemble benchmark, dipoles at 30 degrees
    fp = _fp(L_cav=206.64, period=60.0)
    orientation = (math.cos(math.pi / 6.0), math.sin(math.pi / 6.0), 0.0)
    lat = cubic_dipole_lattice(fp, 10.0, (5, 5, 20), _F_DIP, 3.0, orientation=orientation)
    full = build_full_system(lat, fp, include_dipole_dipole=dipole_dipole)
    freqs = full.eigenfrequencies()
    reference = _linearized_eigenfrequencies(full)
    assert freqs.shape == reference.shape == (501,)
    assert np.max(np.abs(freqs - reference) / reference) <= 1e-12


def test_velocity_couplings_match_the_per_dipole_profile():
    fp = _fp(L_cav=60.0, period=30.0, modes=(_MODE, (1, (0.1, 0.05))))
    lat = cubic_dipole_lattice(fp, 3.0, (3, 2, 2), _F_DIP, 3.0)
    full = build_full_system(lat, fp)
    gmax = fp.g_max(lat.f_dip_reduced)
    assert full.coupling.shape == (lat.n_dip, 2)
    for alpha, mode in enumerate(fp.modes):
        expected = np.array([2.0 * (gmax * fp.mode_profile(mode, r)) for r in lat.positions])
        np.testing.assert_array_equal(full.coupling[:, alpha], expected)


def test_indefinite_stiffness_is_reported_not_returned():
    # head-to-tail chain at 0.6 spacing: the attractive dipole-dipole blocks
    # push the lowest stiffness eigenvalue below zero
    fp = _fp(L_cav=60.0, period=30.0)
    lat = cubic_dipole_lattice(fp, 0.6, (4, 1, 1), _F_DIP, 3.0)
    with pytest.raises(PolaritonError, match="positive definite"):
        build_full_system(lat, fp).eigenfrequencies()
    stable = build_full_system(cubic_dipole_lattice(fp, 3.0, (4, 1, 1), _F_DIP, 3.0), fp)
    freqs = stable.eigenfrequencies()
    assert np.isrealobj(freqs)
    assert freqs.shape == (stable.n_dip + stable.n_modes,)
    assert np.all(freqs > 0.0)


def test_solve_rejects_exactly_the_indefinite_stiffness_blocks():
    # head-to-tail chain across the spacing where the lowest stiffness
    # eigenvalue crosses zero (near 0.69), with three modes coupled
    fp = _fp(L_cav=60.0, period=30.0, modes=_TILTED_MODES)
    outcomes = set()
    for spacing in np.linspace(0.6, 0.8, 41):
        full = build_full_system(cubic_dipole_lattice(fp, spacing, (4, 1, 1), _F_DIP, 3.0), fp)
        try:
            np.linalg.cholesky(full.K_dd)
            stable = True
        except np.linalg.LinAlgError:
            stable = False
        outcomes.add(stable)
        if stable:
            assert np.all(full.eigenfrequencies() > 0.0)
        else:
            with pytest.raises(PolaritonError, match="not positive definite"):
                full.eigenfrequencies()
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "k_dd, coupling, mode_frequencies, match",
    [
        (np.eye(2), np.ones((2, 2)), np.array([3.0]), "got shapes"),
        (np.eye(2), np.ones((3, 1)), np.array([3.0]), "got shapes"),
        (np.ones((2, 3)), np.ones((2, 1)), np.array([3.0]), "got shapes"),
        (np.zeros((0, 0)), np.ones((0, 1)), np.array([3.0]), "got shapes"),
        (np.eye(2), np.ones((2, 1)), np.array([[3.0]]), "got shapes"),
        (np.eye(2), np.ones((2, 1)), np.array([0.0]), "mode frequency must be finite and positive"),
        (np.eye(2), np.ones((2, 1)), np.array([math.nan]), "mode frequency must be finite and positive"),
        ([[9.0, 0.0], [0.0]], [[1.0], [1.0]], [3.0], "block K_dd is not a rectangular array"),
        (np.eye(2), [[1.0], [1.0, 2.0]], [3.0], "block coupling is not a rectangular array"),
    ],
    ids=[
        "coupling-too-wide",
        "coupling-too-tall",
        "K_dd-not-square",
        "no-dipoles",
        "mode-frequencies-2d",
        "zero-mode-frequency",
        "nan-mode-frequency",
        "K_dd-ragged",
        "coupling-ragged",
    ],
)
def test_hand_built_system_needs_matching_blocks_and_positive_mode_frequencies(
    k_dd, coupling, mode_frequencies, match
):
    with pytest.raises(PolaritonError, match=match):
        FullSystem(K_dd=k_dd, coupling=coupling, mode_frequencies=mode_frequencies)


def test_hand_built_system_needs_a_symmetric_stiffness_block():
    # eigvalsh reads one triangle, so this used to be solved as diag(9, 9)
    with pytest.raises(PolaritonError, match="K_dd is not symmetric"):
        FullSystem(K_dd=np.array([[9.0, 5.0], [0.0, 9.0]]), coupling=np.ones((2, 1)), mode_frequencies=np.ones(1))


def test_hand_built_system_accepts_lists():
    with pytest.raises(PolaritonError, match="K_dd is not symmetric"):
        FullSystem(K_dd=[[9.0, 5.0], [0.0, 9.0]], coupling=[[1.0], [1.0]], mode_frequencies=[3.0])
    blocks = ([[9.0, 0.5], [0.5, 9.0]], [[1.0], [0.5]], [3.0])
    from_lists = FullSystem(*blocks)
    from_arrays = FullSystem(*(np.array(block) for block in blocks))
    assert np.array_equal(from_lists.eigenfrequencies(), from_arrays.eigenfrequencies())
    assert FullSystem(blocks[0], [[1.0], [0.5j]], blocks[2]).coupling.dtype == complex


@pytest.mark.parametrize(
    "k_dd, coupling, match",
    [
        ([[9.0, 0.0], [0.0, math.nan]], [[1.0], [1.0]], r"K_dd must be finite, got .* \(grid row 1\)"),
        ([[math.inf, 0.0], [0.0, 9.0]], [[1.0], [1.0]], r"K_dd must be finite, got .* \(grid row 0\)"),
        (np.eye(2), [[1.0], [-math.inf]], r"coupling must be finite, got \[-inf\] \(grid row 1\)"),
        (np.eye(2), [[1.0], [complex(math.nan, 1.0)]], r"coupling \(real part\) must be finite, got \[nan\] \(grid row 1\)"),
        (np.eye(2), [[complex(1.0, math.inf)], [1.0]], r"coupling \(imaginary part\) must be finite, got \[inf\] \(grid row 0\)"),
    ],
    ids=["nan-K_dd", "inf-K_dd", "inf-coupling", "nan-complex-coupling-real", "inf-complex-coupling-imaginary"],
)
def test_hand_built_system_needs_finite_blocks(k_dd, coupling, match):
    # these used to pass and end in LAPACK's bare "Eigenvalues did not converge"
    with pytest.raises(PolaritonError, match=match):
        FullSystem(K_dd=k_dd, coupling=coupling, mode_frequencies=[3.0])


def test_two_dipoles_without_modes_split_symmetrically():
    # side-by-side pair: amplitude coupling g splits the degenerate line into
    # sqrt(w^2 -/+ 2 w g) (the repulsive perpendicular arrangement raises the
    # in-phase mode)
    fp_empty = _fp(modes=())
    lat = cubic_dipole_lattice(_fp(), 3.0, (2, 1, 1), _F_DIP, 3.0, orientation=(0.0, 1.0, 0.0))
    full = build_full_system(lat, fp_empty)
    freqs = np.sort(full.eigenfrequencies().real)
    g12 = 0.5 * lat.f_dip_reduced / (3.0**3 * 3.0)
    assert freqs[0] == pytest.approx(math.sqrt(9.0 - 6.0 * g12), rel=1e-12)
    assert freqs[1] == pytest.approx(math.sqrt(9.0 + 6.0 * g12), rel=1e-12)


def test_full_system_block_structure():
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (2, 2, 2), _F_DIP, 3.0)
    full = build_full_system(lat, fp)
    assert full.n_dip == 8 and full.n_modes == 1
    assert full.K_dd.shape == (8, 8) and full.coupling.shape == (8, 1)
    assert np.isrealobj(full.K_dd) and np.isrealobj(full.coupling)
    assert np.all(full.coupling != 0.0)
    assert full.mode_frequencies.tolist() == [fp.mode_frequency(_MODE)]
    assert full.eigenfrequencies().size == 9


def test_full_system_guards():
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (2, 1, 1), _F_DIP, 3.0)
    tall = _fp(L_cav=20.0)
    with pytest.raises(PolaritonError, match="between the mirrors"):
        build_full_system(
            DipoleLattice(
                positions=np.array([[5.0, 5.0, 25.0]]),
                orientation=(1.0, 0.0, 0.0),
                f_dip=_F_DIP,
                omega_dip=3.0,
                spacing=1.0,
            ),
            tall,
        )
    with pytest.raises(PolaritonError, match="overlap"):
        build_full_system(
            DipoleLattice(
                positions=np.array([[5.0, 5.0, 10.0], [5.0, 5.0, 10.0]]),
                orientation=(1.0, 0.0, 0.0),
                f_dip=_F_DIP,
                omega_dip=3.0,
                spacing=1.0,
            ),
            tall,
        )
    with pytest.raises(PolaritonError, match="desk-scale"):
        big = cubic_dipole_lattice(_fp(L_cav=600.0, period=30.0), 3.0, (8, 8, 8), _F_DIP, 3.0)
        build_full_system(big, _fp(L_cav=600.0, period=30.0))


@pytest.mark.parametrize("n", [0, 501], ids=["no-dipoles", "501-dipoles"])
def test_lattice_dipole_count_is_checked_at_construction(n):
    with pytest.raises(PolaritonError, match="no dipoles" if n == 0 else "desk-scale"):
        DipoleLattice(
            positions=np.column_stack([np.arange(n), np.zeros(n), np.full(n, 10.0)]),
            orientation=(1.0, 0.0, 0.0),
            f_dip=_F_DIP,
            omega_dip=3.0,
            spacing=1.0,
        )


# ---------------------------------------------------------------------------
# collective reduction vs exact diagonalization


def test_single_dipole_reduction_is_exact():
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (1, 1, 1), _F_DIP, 3.0)
    report = full_vs_reduced_check(lat, fp, _MODE)
    assert report.max_rel_deviation < 1e-12
    assert report.passed


def test_chain_of_twenty_reduction_without_interactions():
    fp = _fp()
    lat = cubic_dipole_lattice(fp, 10.0, (1, 1, 20), _F_DIP, 3.0)
    report = full_vs_reduced_check(lat, fp, _MODE, include_dipole_dipole=False)
    assert report.max_rel_deviation < 1e-10
    assert report.passed
    assert report.collective.N_eff == pytest.approx(10.0, rel=1e-13)


def test_collective_coupling_grows_with_sqrt_lattice_size():
    fp = _fp(L_cav=60.0, period=30.0)
    gmax = None
    for shape in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
        lat = cubic_dipole_lattice(fp, 3.0, shape, _F_DIP, 3.0)
        cm = collective_reduce(lat, fp, _MODE, include_dipole_dipole=False)
        gmax = fp.g_max(lat.f_dip_reduced) if gmax is None else gmax
        n = shape[0] * shape[1] * shape[2]
        assert cm.G == pytest.approx(gmax * math.sqrt(n / 2.0), rel=0.01)


def test_interaction_shift_of_a_dipole_pair():
    fp = _fp()
    lat = cubic_dipole_lattice(fp, 3.0, (2, 1, 1), _F_DIP, 3.0, orientation=(0.0, 1.0, 0.0))
    cm = collective_reduce(lat, fp, _MODE)
    g12 = 0.5 * lat.f_dip_reduced / (3.0**3 * 3.0)
    assert cm.g_shift == pytest.approx(g12, rel=1e-12)
    assert cm.g_shift_spread == pytest.approx(0.0, abs=1e-15)


def test_interaction_sum_converges_within_the_cutoff():
    # the r^-3 lattice sum within the 10-spacing cutoff is within a percent
    # of the sum over all pairs of a 20-dipole chain (19 spacings long)
    fp = _fp(L_cav=60.0)
    lat = cubic_dipole_lattice(fp, 3.0, (1, 1, 20), _F_DIP, 3.0)
    near = collective_reduce(lat, fp, _MODE).g_shift
    _, g_pairs = lat.pair_couplings
    all_pairs = float(np.mean(g_pairs.sum(axis=1)))  # k_parallel = 0: no phases
    assert all_pairs != near
    assert abs(all_pairs - near) / abs(all_pairs) < 0.01


def test_reduction_guards():
    fp = _fp()
    lat = cubic_dipole_lattice(fp, 3.0, (1, 1, 2), _F_DIP, 3.0)
    with pytest.raises(PolaritonError, match="not among"):
        collective_reduce(lat, fp, (2, (0.0, 0.0)))


# ---------------------------------------------------------------------------
# the blocked pair kernel and the preallocated gauge matrix, bit for bit
# against the dense N x N formulation they replaced


def _dense_pairwise_couplings(lattice):
    """The dense formulation of ``_pairwise_couplings``, kept as an oracle."""
    pos = lattice.positions
    n = pos.shape[0]
    dx, dy, dz = (c[:, None] - c for c in pos.T)
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    off = ~np.eye(n, dtype=bool)
    if np.any(dist[off] == 0.0):
        i, j = np.argwhere((dist == 0.0) & off)[0]
        raise PolaritonError(f"dipoles {i} and {j} overlap at {pos[i]}")
    safe = np.where(off, dist, 1.0)
    nx, ny, nz = lattice.orientation
    cos_align = (dx * nx + dy * ny + dz * nz) / safe
    ang = 1.0 - 3.0 * cos_align**2
    g = np.where(off, 0.5 * lattice.f_dip_reduced * ang / (safe**3 * lattice.omega_dip), 0.0)
    return dist, g


def _dense_k_dd(lattice, include_dipole_dipole):
    """The stiffness block as ``wd^2 I + 2 wd g``, from the dense pair couplings."""
    n = lattice.n_dip
    _, g_pairs = _dense_pairwise_couplings(lattice)
    wd = lattice.omega_dip
    k_dd = wd * wd * np.eye(n)
    if include_dipole_dipole:
        k_dd += 2.0 * wd * g_pairs
    return k_dd


def _block_gauge(full):
    """The dipole-gauge matrix assembled with ``np.block``."""
    c, omega = full.coupling, full.mode_frequencies
    dressed = c * omega
    return np.block([[full.K_dd + c @ c.conj().T, dressed], [dressed.conj().T, np.diag(omega**2)]])


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


def _solved_gauge(full, monkeypatch):
    """The matrix ``full.eigenfrequencies()`` hands to ``eigvalsh`` first, and its
    result (None when the stiffness block is rejected as indefinite)."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrix):
        seen.append(matrix.copy())
        return eigvalsh(matrix)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", spy)
        try:
            freqs = full.eigenfrequencies()
        except PolaritonError as exc:
            assert "not positive definite" in str(exc)
            freqs = None
    return seen[0], freqs


def _assert_matches_the_dense_build(lattice, fp, monkeypatch):
    dist, g = lattice.pair_couplings
    dense_dist, dense_g = _dense_pairwise_couplings(lattice)
    _assert_same_bits(dist, dense_dist)
    _assert_same_bits(g, dense_g)
    _assert_same_bits(dist, dist.T)  # the mirrored triangle is exact
    _assert_same_bits(g, g.T)
    for dipole_dipole in (False, True):
        full = build_full_system(lattice, fp, include_dipole_dipole=dipole_dipole)
        _assert_same_bits(full.K_dd, _dense_k_dd(lattice, dipole_dipole))
        gauge, freqs = _solved_gauge(full, monkeypatch)
        expected = _block_gauge(full)
        _assert_same_bits(gauge, expected)
        squared = np.linalg.eigvalsh(expected)
        if freqs is None:  # close dipoles can make the stiffness block indefinite
            assert squared[0] <= 0.0
        else:
            _assert_same_bits(freqs, np.sqrt(squared))


@pytest.mark.parametrize(
    "shape", [(1, 1, 1), (2, 1, 1), (7, 9, 1), (4, 4, 4), (5, 13, 1), (8, 8, 2), (5, 5, 20)],
    ids=lambda shape: f"N{math.prod(shape)}",
)
@pytest.mark.parametrize("modes", [(_MODE,), _TILTED_MODES], ids=["real-coupling", "complex-coupling"])
def test_lattice_matrices_are_bit_identical_to_the_dense_build(shape, modes, monkeypatch):
    # N = 63, 64 and 65 straddle one block of rows, 128 fills two, 500 is the cap
    fp = _fp(L_cav=206.64, period=60.0, modes=modes)
    orientation = (math.cos(math.pi / 6.0), math.sin(math.pi / 6.0), 0.0)
    lat = cubic_dipole_lattice(fp, 10.0, shape, _F_DIP, 3.0, orientation=orientation)
    _assert_matches_the_dense_build(lat, fp, monkeypatch)


_SITES = np.array([(4.0 + 8.0 * x, 4.0 + 8.0 * y, 10.0 + 20.0 * z) for z in range(3) for y in range(7) for x in range(7)])


@given(
    sites=st.permutations(range(len(_SITES))),
    jitter=st.one_of(st.integers(1, 64), st.integers(65, 140)).flatmap(
        lambda n: arrays(np.float64, (n, 3), elements=st.floats(min_value=-3.0, max_value=3.0))
    ),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_off_lattice_matrices_are_bit_identical_to_the_dense_build(sites, jitter, theta, phi):
    # N dipoles, each within 3 nm of its own site of an 8 nm grid (so none coincide),
    # in shuffled order and at out-of-plane orientations; N spans one to three row blocks
    positions = _SITES[sites[: len(jitter)]] + jitter
    orientation = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    lat = DipoleLattice(positions, orientation, _F_DIP, 3.0, 3.0)
    fp = _fp(L_cav=60.0, period=60.0, modes=_TILTED_MODES)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_the_dense_build(lat, fp, monkeypatch)


_COPIES = pytest.mark.parametrize(
    "copies", [((3, 5),), ((3, 130),), ((70, 100), (3, 130)), ((64, 65),)],
    ids=["within-a-block", "across-blocks", "first-in-row-order", "block-edge"],
)


def _coincident_lattice(copies):
    """140 dipoles in a row, with each ``(source, target)`` of ``copies`` moved onto its source."""
    positions = np.column_stack([np.arange(140) * 3.0 + 1.0, np.zeros(140), np.full(140, 10.0)])
    for source, target in copies:
        positions[target] = positions[source]
    return DipoleLattice(positions, (1.0, 0.0, 0.0), _F_DIP, 3.0, 3.0)


@_COPIES
def test_coincident_dipoles_are_named_as_in_the_dense_build(copies):
    lat = _coincident_lattice(copies)
    positions = lat.positions
    with pytest.raises(PolaritonError) as dense:
        _dense_pairwise_couplings(lat)
    i, j = copies[-1]
    assert str(dense.value) == f"dipoles {i} and {j} overlap at {positions[i]}"
    with pytest.raises(PolaritonError, match=f"^{re.escape(str(dense.value))}$"):
        lat.pair_couplings


@_COPIES
def test_a_build_without_dipole_dipole_coupling_names_the_same_coincident_pair(copies, monkeypatch):
    # no pair kernel runs: the positions are checked on their own
    lat = _coincident_lattice(copies)
    with pytest.raises(PolaritonError) as dense:
        _dense_pairwise_couplings(lat)
    monkeypatch.setattr(ensemble, "_pairwise_couplings", None)
    with pytest.raises(PolaritonError, match=f"^{re.escape(str(dense.value))}$"):
        build_full_system(lat, _fp(L_cav=20.0), include_dipole_dipole=False)
