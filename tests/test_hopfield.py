"""Quantum two-mode oracle: quartic closed form and truncated Fock spectra."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polariton_lab import PolaritonError, hopfield
from polariton_lab.hopfield import (
    HopfieldParams,
    QuantumSpectrum,
    _band,
    _certify,
    _dense,
    _fock_terms,
    _lowest_levels,
    frame_equivalence_check,
    hopfield_quartic_eigen,
    truncated_fock_spectrum,
)
from polariton_lab.models import ModelVariant, branch_frequencies

_ratios = st.floats(min_value=0.3, max_value=3.0)
_gs = st.floats(min_value=0.0, max_value=0.45)


# ---------------------------------------------------------------------------
# quartic closed form


@given(ratio=_ratios, g=_gs)
@settings(max_examples=200, deadline=None)
def test_quartic_without_diamagnetic_term_is_the_spring_model(ratio, g):
    p = HopfieldParams(omega_cav=ratio, omega_mat=1.0, g_qed=g, D=0.0)
    if not p.stable:
        return
    w_plus, w_minus = hopfield_quartic_eigen(p)
    plus, minus = branch_frequencies(ModelVariant.SPC, ratio, 1.0, g)
    assert w_plus == pytest.approx(float(plus), rel=1e-12)
    assert w_minus == pytest.approx(float(minus), rel=1e-12)


@given(ratio=_ratios, g=_gs)
@settings(max_examples=200, deadline=None)
def test_quartic_with_matched_diamagnetic_term_is_the_momentum_model(ratio, g):
    p = HopfieldParams(omega_cav=ratio, omega_mat=1.0, g_qed=g, D=g**2 / 1.0)
    w_plus, w_minus = hopfield_quartic_eigen(p)
    g_mc = g * math.sqrt(ratio / 1.0)
    plus, minus = branch_frequencies(ModelVariant.MOC, ratio, 1.0, g_mc)
    assert w_plus == pytest.approx(float(plus), rel=1e-12)
    assert w_minus == pytest.approx(float(minus), rel=1e-12)


def test_quartic_decouples_at_zero_coupling():
    p = HopfieldParams(omega_cav=1.7, omega_mat=1.0, g_qed=0.0)
    w_plus, w_minus = hopfield_quartic_eigen(p)
    assert w_plus == pytest.approx(1.7, rel=1e-14)
    assert w_minus == pytest.approx(1.0, rel=1e-14)


def test_quartic_rejects_unstable_parameters():
    # without the diamagnetic term, strong enough coupling collapses the
    # lower mode
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.6, D=0.0)
    assert not p.stable
    with pytest.raises(PolaritonError, match="unstable"):
        hopfield_quartic_eigen(p)


def test_quartic_rejects_the_marginal_point():
    # omega_cav = 4 g^2 / omega_mat exactly: the lower mode is a zero mode,
    # which HopfieldParams.stable also calls unstable
    p = HopfieldParams(omega_cav=0.36, omega_mat=1.0, g_qed=0.3, D=0.0)
    assert not p.stable
    with pytest.raises(PolaritonError, match="unstable"):
        hopfield_quartic_eigen(p)


@given(ratio=_ratios, g=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_stability_flag_matches_lower_mode_sign(ratio, g):
    p = HopfieldParams(omega_cav=ratio, omega_mat=1.0, g_qed=g, D=0.0)
    lhs = (ratio**2) * 1.0
    rhs = 4.0 * g**2 * ratio
    assert p.stable == (lhs > rhs)
    if p.stable:
        hopfield_quartic_eigen(p)


def test_matched_diamagnetic_term_stabilizes_any_coupling():
    for g in (0.5, 1.0, 2.0):
        p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=g, D=g**2)
        assert p.stable
        w_plus, w_minus = hopfield_quartic_eigen(p)
        assert w_minus > 0.0
        assert w_plus * w_minus == pytest.approx(1.0, rel=1e-10)


def test_upper_mode_grows_with_diamagnetic_strength():
    base = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=0.0)
    w0 = hopfield_quartic_eigen(base)[0]
    prev = w0
    for d in (0.05, 0.09, 0.2):
        w = hopfield_quartic_eigen(
            HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=d)
        )[0]
        assert w > prev
        prev = w


def test_params_validation():
    with pytest.raises(PolaritonError):
        HopfieldParams(omega_cav=-1.0, omega_mat=1.0, g_qed=0.1)
    with pytest.raises(PolaritonError):
        HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=-0.1)
    with pytest.raises(PolaritonError):
        HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.1, D=-0.2)


# ---------------------------------------------------------------------------
# truncated Fock diagonalization


def test_fock_spectrum_decoupled_is_harmonic_ladder():
    p = HopfieldParams(omega_cav=1.5, omega_mat=1.0, g_qed=0.0)
    spec = truncated_fock_spectrum(p, n_max=6, n_levels=4)
    assert spec.ground_state_energy == pytest.approx(0.5 * (1.5 + 1.0), rel=1e-12)
    assert spec.excitation_energies[:2] == pytest.approx([1.0, 1.5], rel=1e-12)
    assert spec.truncation == 6


def test_fock_gaps_converge_to_quartic_roots():
    p = HopfieldParams(omega_cav=1.2, omega_mat=1.0, g_qed=0.3, D=0.09)
    w_plus, w_minus = hopfield_quartic_eigen(p)
    spec = truncated_fock_spectrum(p, n_max=40, n_levels=2)
    assert spec.excitation_energies[0] == pytest.approx(w_minus, abs=1e-6)
    assert spec.excitation_energies[1] == pytest.approx(w_plus, abs=1e-6)


def test_fock_ground_state_is_half_the_mode_sum():
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=0.09)
    w_plus, w_minus = hopfield_quartic_eigen(p)
    spec = truncated_fock_spectrum(p, n_max=40, n_levels=1)
    assert spec.ground_state_energy == pytest.approx(
        0.5 * (w_plus + w_minus), abs=1e-6
    )


def test_ground_state_shift_direction_depends_on_diamagnetic_term():
    bare = 0.5 * (1.0 + 1.0)
    no_d = truncated_fock_spectrum(
        HopfieldParams(1.0, 1.0, g_qed=0.3, D=0.0), n_max=30, n_levels=1
    )
    with_d = truncated_fock_spectrum(
        HopfieldParams(1.0, 1.0, g_qed=0.3, D=0.09), n_max=30, n_levels=1
    )
    assert no_d.ground_state_energy < bare - 1e-4
    assert with_d.ground_state_energy > bare + 1e-4


def test_fock_truncation_convergence():
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=0.09)
    coarse = truncated_fock_spectrum(p, n_max=30, n_levels=3)
    fine = truncated_fock_spectrum(p, n_max=40, n_levels=3)
    assert np.max(np.abs(coarse.excitation_energies - fine.excitation_energies)) < 1e-7


def test_fock_guards():
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.1)
    with pytest.raises(PolaritonError):
        truncated_fock_spectrum(p, n_max=1, n_levels=1)
    with pytest.raises(PolaritonError, match="desk-scale"):
        truncated_fock_spectrum(p, n_max=64, n_levels=1)
    with pytest.raises(PolaritonError):
        truncated_fock_spectrum(p, n_max=10, n_levels=0)
    with pytest.raises(PolaritonError):
        truncated_fock_spectrum(p, n_max=10, n_levels=121)
    # the frame check solves its partner at the spectrum's truncation, under the same guard
    with pytest.raises(PolaritonError, match="n_max must be >= 2"):
        frame_equivalence_check(p, QuantumSpectrum(np.ones(1), 1.0, truncation=1))
    with pytest.raises(PolaritonError, match="desk-scale"):
        frame_equivalence_check(p, QuantumSpectrum(np.ones(1), 1.0, truncation=64))


def test_rotating_wave_toggle_reduces_to_linearized_branches():
    # weak coupling, no diamagnetic term: the RWA gaps are the first-order
    # branch energies and the ground state is undressed
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.05, D=0.0)
    spec = truncated_fock_spectrum(p, n_max=20, n_levels=2, rwa=True)
    assert spec.excitation_energies[0] == pytest.approx(0.95, abs=1e-12)
    assert spec.excitation_energies[1] == pytest.approx(1.05, abs=1e-12)
    assert spec.ground_state_energy == pytest.approx(1.0, abs=1e-12)


def test_counter_rotating_terms_matter_in_ultrastrong_coupling():
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=0.0)
    full = truncated_fock_spectrum(p, n_max=30, n_levels=2)
    rwa = truncated_fock_spectrum(p, n_max=30, n_levels=2, rwa=True)
    diff = np.max(np.abs(full.excitation_energies - rwa.excitation_energies))
    assert diff > 0.01


def _dense_fock_levels(p, n_max, frame):
    """All levels of the two-mode Hamiltonian built as one dense d^2 x d^2 kron matrix.

    The ``"dipole"`` frame is the dipole-gauge partner written out directly:
    the self-term ``D' = D omega_cav / omega_mat`` on the matter mode and the
    coupling ``g'`` from ``g'^2 = g^2 + D (omega_cav^2 - omega_mat^2) / omega_mat``.
    """
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    ad = a.T
    n = ad @ a
    x = a + ad
    eye = np.eye(d)
    cav, mat = p.omega_cav * n, p.omega_mat * n
    if frame == "rwa":
        coupling = p.g_qed * (np.kron(a, ad) + np.kron(ad, a))
        cav = cav + p.D * (2.0 * n + eye)
    elif frame == "dipole":
        g_prime = math.sqrt(p.g_qed**2 + p.D * (p.omega_cav**2 - p.omega_mat**2) / p.omega_mat)
        coupling = g_prime * np.kron(x, x)
        mat = mat + p.D * p.omega_cav / p.omega_mat * (x @ x)
    else:
        coupling = p.g_qed * np.kron(x, x)
        cav = cav + p.D * (x @ x)
    h = np.kron(cav, eye) + np.kron(eye, mat) + coupling
    h += 0.5 * (p.omega_cav + p.omega_mat) * np.eye(d * d)
    # each level refined by the Rayleigh quotient of its eigenvector, as level + v^T (H - level) v
    # with the diagonal apart: eigvalsh alone is off by up to 6e-12 at the top of an n_max 40
    # spectrum, the quotient by an ulp or two
    levels, vectors = np.linalg.eigh(h)
    diagonal = np.diagonal(h).copy()
    residuals = (h - np.diag(diagonal)) @ vectors + (diagonal[:, None] - levels) * vectors
    return np.sort(levels + np.sum((vectors * residuals).T, axis=1) / np.sum((vectors * vectors).T, axis=1))


def _band_states(d, parity):
    """Kron indices n_a * d + n_b of one parity block's states, listed by super-block.

    Super-block j holds photon numbers 2j and 2j + 1, photon-major, each
    photon number's matter numbers ascending.
    """
    return [
        [n_a * d + n_b for n_a in (2 * j, 2 * j + 1) if n_a < d for n_b in range(d) if (n_a + n_b) % 2 == parity]
        for j in range((d + 1) // 2)
    ]


_DENSE_CASE = HopfieldParams(omega_cav=1.3, omega_mat=1.0, g_qed=0.4, D=0.16)
# MoC (D = g^2 / omega_mat) off resonance: the partner is a different truncated matrix
_MOC_DETUNED = HopfieldParams(omega_cav=1.2, omega_mat=1.0, g_qed=0.5, D=0.25)


@pytest.mark.parametrize("rwa", [False, True])
def test_fock_spectrum_matches_the_dense_kron_hamiltonian(rwa):
    reference = _dense_fock_levels(_DENSE_CASE, 12, "rwa" if rwa else "position")
    spec = truncated_fock_spectrum(_DENSE_CASE, n_max=12, n_levels=168, rwa=rwa)
    assert abs(spec.ground_state_energy - reference[0]) <= 1e-12
    assert np.max(np.abs(spec.excitation_energies - (reference[1:] - reference[0]))) <= 1e-12


def _dipole_gauge_partner(p):
    """The partner the frame check builds: mode roles swapped, D' and g' as in the dense reference."""
    g_prime = math.sqrt(p.g_qed**2 + p.D * (p.omega_cav**2 - p.omega_mat**2) / p.omega_mat)
    return HopfieldParams(p.omega_mat, p.omega_cav, g_prime, p.D * p.omega_cav / p.omega_mat)


def _gershgorin_floor(diag, sub):
    """``floor[j]`` of ``_band`` from the dense band: the least Gershgorin bound of the rows from super-block j on."""
    full = np.tril(_dense(diag, sub))
    full = full + np.tril(full, -1).T
    bounds = np.diag(full) - (np.sum(np.abs(full), axis=1) - np.abs(np.diag(full)))
    return np.minimum.accumulate(np.min(bounds.reshape(-1, diag.shape[1]), axis=1)[::-1])[::-1]


# the dense case, and the same with a term that vanishes: no coupling (g = 0) or no self-term (D = 0)
_SCATTER_CASES = {
    "": _DENSE_CASE,
    "g0": HopfieldParams(omega_cav=1.3, omega_mat=1.0, g_qed=0.0, D=0.16),
    "D0": HopfieldParams(omega_cav=1.3, omega_mat=1.0, g_qed=0.4, D=0.0),
}


@pytest.mark.parametrize("n_max", [2, 3, 12, 40])
@pytest.mark.parametrize("frame", [f"{frame}-{case}".strip("-") for case in _SCATTER_CASES for frame in ("position", "rwa", "dipole")])
def test_scattered_parity_blocks_equal_the_kron_assembly(n_max, frame):
    # each parity block, sorted into its band order, against the dense kron sum
    frame, _, case = frame.partition("-")
    p = _SCATTER_CASES[case]
    if frame == "dipole":
        terms = _fock_terms(_dipole_gauge_partner(p), n_max)
    else:
        terms = _fock_terms(p, n_max, rwa=frame == "rwa")
    d = n_max + 1
    dense = sum(np.kron(a, b) for a, b in terms)
    top = np.max(np.sum(np.abs(dense), axis=1))  # at least every level
    blocks = []
    for parity in (0, 1):
        diag, sub, size, floor = _band(terms, parity)
        states = _band_states(d, parity)
        assert size == sum(map(len, states))
        assert np.allclose(floor, _gershgorin_floor(diag, sub), rtol=0.0, atol=1e-12 * top)
        for j, rows in enumerate(states):
            r = len(rows)
            # bit for bit against the kron sum; phantom rows, if any, are decoupled
            # and sit above every level
            assert np.array_equal(diag[j, :r, :r], dense[np.ix_(rows, rows)])
            assert not np.any(diag[j, r:, :r]) and not np.any(diag[j, :r, r:])
            phantom = diag[j, r:, r:]
            assert np.array_equal(phantom, np.diag(np.diag(phantom))) and np.all(np.diag(phantom) > top)
            if j:
                assert np.array_equal(sub[j - 1, :r, : len(states[j - 1])], dense[np.ix_(rows, states[j - 1])])
                assert not np.any(sub[j - 1, r:]) and not np.any(sub[j - 1, :, len(states[j - 1]) :])
        # nothing lies outside the band: super-blocks two or more apart never meet
        for j, rows in enumerate(states):
            for far in states[j + 2 :]:
                assert not np.any(dense[np.ix_(rows, far)])
        blocks.append(sum(states, []))
    # and the two parity blocks share no entry and cover every state
    assert not np.any(dense[np.ix_(*blocks)])
    assert sorted(sum(blocks, [])) == list(range(d * d))


def test_dipole_gauge_partner_levels_match_the_dense_kron_hamiltonian():
    # the partner is the real build with the mode roles swapped; the reference
    # keeps the mode order and moves the self-term instead
    levels = _lowest_levels(_fock_terms(_dipole_gauge_partner(_DENSE_CASE), 12), 169)
    assert np.max(np.abs(levels - _dense_fock_levels(_DENSE_CASE, 12, "dipole"))) <= 1e-12


@st.composite
def _stable_params(draw):
    """Stable parameters: g runs up to the SpC instability g^2 = omega_cav * omega_mat / 4
    and, with the matched MoC self-term, into deep-strong coupling."""
    omega_cav = draw(st.floats(0.3, 3.0))
    if draw(st.booleans()):
        g = draw(st.floats(0.0, 0.999)) * math.sqrt(omega_cav) / 2.0
        return HopfieldParams(omega_cav, 1.0, g, 0.0)
    g = draw(st.floats(0.0, 1.2))
    return HopfieldParams(omega_cav, 1.0, g, g * g)


@st.composite
def _oracle_cases(draw):
    """Stable parameters, a frame, a truncation and a level count for the lowest-levels solve."""
    p = draw(_stable_params())
    n_max = draw(st.integers(2, 40))
    count = draw(st.one_of(st.integers(1, 8), st.integers(1, (n_max + 1) ** 2)))
    return p, draw(st.sampled_from(["position", "rwa", "dipole"])), n_max, count


@given(case=_oracle_cases())
@example(case=(HopfieldParams(1.1, 1.0, 0.3, 0.09), "dipole", 32, 6))  # the benchmark box
@example(case=(HopfieldParams(0.3601, 1.0, 0.3, 0.0), "position", 36, 6))  # SpC near instability
@example(case=(HopfieldParams(0.3, 1.0, 1.2, 1.44), "position", 40, 6))  # deep-strong MoC
@example(case=(HopfieldParams(1.0, 1.0, 0.0, 0.0), "position", 28, 4))  # degenerate ladder
@example(case=(HopfieldParams(1.0, 1.0, 0.0, 0.0), "position", 22, 3))  # a degenerate level past the start's width
@example(case=(HopfieldParams(0.05, 1.0, 0.0, 0.0), "position", 32, 9))  # a soft mode: low levels beyond the start's cut
@example(case=(HopfieldParams(1.0, 1.0, 1.0, 1.0), "rwa", 30, 657))  # high levels of a dense solve: round-off near 1e-12
@example(case=(HopfieldParams(3.0, 1.0, 1.2, 1.44), "dipole", 40, 1681))  # every level, up to 1215 eV
@settings(max_examples=15, deadline=None)
def test_lowest_levels_match_the_dense_kron_hamiltonian(case):
    p, frame, n_max, count = case
    if frame == "dipole":
        terms = _fock_terms(_dipole_gauge_partner(p), n_max)
    else:
        terms = _fock_terms(p, n_max, rwa=frame == "rwa")
    levels = _lowest_levels(terms, count)
    assert levels.shape == (count,)
    assert np.max(np.abs(levels - _dense_fock_levels(p, n_max, frame)[:count])) <= 1e-12


@pytest.fixture
def certified(monkeypatch):
    """The level count of every certificate issued: one per band that takes the Krylov path."""
    counts = []
    certify = hopfield._certify

    def counted(diag, sub, levels, gap, count, floor=None):
        counts.append(len(levels))
        return certify(diag, sub, levels, gap, count, floor)

    monkeypatch.setattr(hopfield, "_certify", counted)
    return counts


def test_benchmark_box_takes_the_certified_krylov_path(certified):
    truncated_fock_spectrum(HopfieldParams(1.1, 1.0, 0.3, 0.09), n_max=40, n_levels=5)
    # one certificate per parity band, each for at least the six levels asked of it
    assert len(certified) == 2 and min(certified) >= 6


def test_benchmark_box_certificates_stop_early(monkeypatch):
    # the rest of each band is provably positive definite after a few of its 21 pivots
    factored = []
    ldl = hopfield._ldl

    def counted(diag, sub, shift, floor=None):
        factors = ldl(diag, sub, shift, floor)
        if floor is not None:  # the certificate's count; the shift probe factors every pivot
            factored.append(len(factors[0]))
        return factors

    monkeypatch.setattr(hopfield, "_ldl", counted)
    truncated_fock_spectrum(HopfieldParams(1.1, 1.0, 0.3, 0.09), n_max=40, n_levels=5)
    assert len(factored) == 2 and max(factored) <= 8


@given(case=st.tuples(_stable_params(), st.booleans(), st.integers(2, 20), st.integers(0, 1), st.integers(0, 51)))
@example(case=(HopfieldParams(1.1, 1.0, 0.3, 0.09), False, 20, 0, 6))  # the benchmark box
@example(case=(HopfieldParams(1.1, 1.0, 0.3, 0.09), False, 20, 1, 51))
@example(case=(HopfieldParams(0.3601, 1.0, 0.3, 0.0), False, 20, 0, 0))  # SpC near instability
@settings(max_examples=40, deadline=None)
def test_early_stopping_inertia_count_matches_the_dense_spectrum(case):
    # a parity band at n_max <= 20 (rwa or not) and a shift between two of its lowest 51 levels
    p, rwa, n_max, parity, below = case
    terms = _fock_terms(p, n_max, rwa=rwa)
    diag, sub, _, floor = _band(terms, parity)
    states = sum(_band_states(n_max + 1, parity), [])
    dense = sum(np.kron(a, b) for a, b in terms)
    levels = np.linalg.eigvalsh(dense[np.ix_(states, states)])
    below = min(below, len(levels))
    # the shift sits between level below - 1 and level below, at least 1e-6 of the spread from each
    low = levels[below - 1] if below else levels[0] - 1.0
    high = levels[below] if below < len(levels) else levels[-1] + 1.0
    assume(high - low > 2e-6 * (levels[-1] - levels[0] + 1.0))
    # as the certificate counts, stopping early, and as the shift probe does, factoring every pivot
    for bound in (floor, None):
        assert hopfield._ldl(diag, sub, 0.5 * (low + high), bound)[2] == below


@pytest.mark.parametrize(
    "diag, sub, shift",
    [
        # the first pivot is dominant, but the last block holds a level below the shift
        ([10.0, 10.0, 0.5], [0.1, 0.1], 1.0),
        # the first pivot is dominant by itself, but its coupling to the next block makes a level below the shift
        ([0.5, 3.0], [2.0], 0.0),
    ],
    ids=["level-in-a-later-block", "level-from-the-coupling"],
)
def test_inertia_count_does_not_stop_at_a_pivot_that_is_dominant_alone(diag, sub, shift):
    # 1 x 1 super-blocks, so that the Gershgorin test of each part can be made to fail on its own
    diag, sub = np.reshape(diag, (-1, 1, 1)), np.reshape(sub, (-1, 1, 1))
    below = int(np.count_nonzero(np.linalg.eigvalsh(_dense(diag, sub)) < shift))
    assert below == 1
    for floor in (_gershgorin_floor(diag, sub), None):
        assert hopfield._ldl(diag, sub, shift, floor)[2] == below


@pytest.mark.parametrize(
    "p",
    [HopfieldParams(0.3601, 1.0, 0.3, 0.0), HopfieldParams(0.3, 1.0, 1.2, 1.44)],
    ids=["spc-near-instability", "deep-strong-moc"],
)
def test_frame_check_edges_take_the_certified_krylov_path(p, certified):
    # the position frame and its dipole-gauge partner: no band stalls into the whole-band solve
    frame_equivalence_check(p, truncated_fock_spectrum(p, n_max=40, n_levels=5))
    assert len(certified) == 4 and min(certified) >= 6


@pytest.mark.parametrize("D", [0.09, 0.0], ids=["MoC", "SpC"])
def test_principal_block_start_needs_few_shifted_solves(D, monkeypatch):
    solves = []
    solve = hopfield._shifted_solve

    def counted(inverses, multipliers, x):
        solves.append(x.shape[1])
        return solve(inverses, multipliers, x)

    monkeypatch.setattr(hopfield, "_shifted_solve", counted)
    truncated_fock_spectrum(HopfieldParams(1.1, 1.0, 0.3, D), n_max=40, n_levels=5)
    # both bands together; a start from the lowest-diagonal unit vectors takes 24
    assert len(solves) <= 12


def test_a_stalled_krylov_basis_still_gives_the_levels(monkeypatch):
    # a shifted solve that returns its input adds only round-off directions to the basis;
    # the double QR keeps the basis orthonormal, so a stalled basis either converges under
    # the certificate or fills up and leaves the band to the whole-band solve
    terms = _fock_terms(HopfieldParams(1.1, 1.0, 0.3, 0.09), 30)
    want = _lowest_levels(terms, 6)
    krylov, calls = hopfield._krylov_levels, []

    def counted(*args):
        calls.append(args[3])
        return krylov(*args)

    monkeypatch.setattr(hopfield, "_krylov_levels", counted)
    monkeypatch.setattr(hopfield, "_shifted_solve", lambda inverses, multipliers, x: x)
    levels = _lowest_levels(terms, 6)
    assert calls == [6, 6]  # both bands take the Krylov path
    assert np.max(np.abs(levels - want)) <= 1e-12


def test_degenerate_level_wider_than_the_krylov_block_is_solved_whole():
    # uncoupled, with a vanishing matter frequency: the 15 even states of photon
    # number 0 share the ground level, more copies than a 6-column Krylov block
    # can hold, so the band is diagonalized whole instead of failing its certificate
    p = HopfieldParams(omega_cav=1.0, omega_mat=1e-300, g_qed=0.0)
    levels = _lowest_levels(_fock_terms(p, 28), 4)
    assert np.max(np.abs(levels - _dense_fock_levels(p, 28, "position")[:4])) <= 1e-12


def test_certificate_raises_on_a_missed_level():
    terms = _fock_terms(_DENSE_CASE, 12)
    diag, sub, _, _ = _band(terms, 0)
    dense = sum(np.kron(a, b) for a, b in terms)
    even = sum(_band_states(13, 0), [])
    levels = np.linalg.eigvalsh(dense[np.ix_(even, even)])[:6]
    _certify(diag, sub, levels, 1e-9, 6)
    with pytest.raises(PolaritonError, match=r"n_max=12, n_levels=5 missed a level"):
        _certify(diag, sub, np.delete(levels, 2), 1e-9, 6)


def test_frame_check_matches_the_dense_kron_hamiltonian():
    position = _dense_fock_levels(_DENSE_CASE, 12, "position")[:6]
    dipole = _dense_fock_levels(_DENSE_CASE, 12, "dipole")[:6]
    expected = max(
        abs(position[0] - dipole[0]),
        np.max(np.abs((position[1:] - position[0]) - (dipole[1:] - dipole[0]))),
    )
    spectrum = truncated_fock_spectrum(_DENSE_CASE, n_max=12, n_levels=5)
    assert abs(frame_equivalence_check(_DENSE_CASE, spectrum) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# frame equivalence


def test_frame_equivalence_trivial_at_zero_coupling():
    p = HopfieldParams(omega_cav=1.3, omega_mat=1.0, g_qed=0.0)
    spectrum = truncated_fock_spectrum(p, n_max=12, n_levels=5)
    assert frame_equivalence_check(p, spectrum) < 1e-12


def test_frame_equivalence_in_ultrastrong_coupling():
    for d in (0.0, 0.09):
        p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=0.3, D=d)
        if not p.stable:
            continue
        spectrum = truncated_fock_spectrum(p, n_max=40, n_levels=5)
        assert frame_equivalence_check(p, spectrum) < 1e-9


def test_frame_check_fails_at_a_coarse_truncation():
    # the partner is isospectral only untruncated: at n_max = 8 the two
    # truncated matrices disagree visibly, and the gap closes by n_max = 40
    coarse = truncated_fock_spectrum(_MOC_DETUNED, n_max=8, n_levels=5)
    fine = truncated_fock_spectrum(_MOC_DETUNED, n_max=40, n_levels=5)
    assert frame_equivalence_check(_MOC_DETUNED, coarse) > 1e-4
    assert frame_equivalence_check(_MOC_DETUNED, fine) <= 1e-12


def test_frame_check_rejects_parameters_without_a_partner():
    # stable, but g^2 + D (omega_cav^2 - omega_mat^2) / omega_mat = -0.365 < 0
    p = HopfieldParams(omega_cav=0.5, omega_mat=1.0, g_qed=0.1, D=0.5)
    assert p.stable
    spectrum = truncated_fock_spectrum(p, n_max=10, n_levels=3)
    with pytest.raises(PolaritonError, match=r"D = 0\.5 eV, omega_cav = 0\.5 eV, omega_mat = 1 eV"):
        frame_equivalence_check(p, spectrum)
