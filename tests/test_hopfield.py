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
    with pytest.raises(PolaritonError, match="n_max must be an integer >= 2, got 1"):
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


@pytest.mark.parametrize("frame", ["position", "rwa", "dipole"])
def test_fock_factors_and_bands_have_no_negative_entry(frame):
    # the Gershgorin row sums of ``_band`` take no absolute values on this: omega, g and D
    # are >= 0, and the ladder, q, the number operator and the identity have no negative entry
    for p in (*_SCATTER_CASES.values(), HopfieldParams(0.3, 1.0, 1.2, 1.44)):
        if frame == "dipole":
            terms = _fock_terms(_dipole_gauge_partner(p), 12)
        else:
            terms = _fock_terms(p, 12, rwa=frame == "rwa")
        assert all(np.all(factor >= 0.0) for term in terms for factor in term)
        for parity in (0, 1):
            diag, sub, _, _ = _band(terms, parity)
            assert np.all(diag >= 0.0) and np.all(sub >= 0.0)


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
@example(case=(HopfieldParams(0.5, 1.0, 1.5, 2.25), "rwa", 34, 11))  # Krylov misses a level: the band is solved whole
@example(case=(HopfieldParams(1.084, 1.0, 0.295, 0.295**2), "position", 40, 6))  # a benchmark draw split (3, 3)
@example(case=(HopfieldParams(0.919, 1.0, 0.163, 0.163**2), "position", 40, 6))  # a benchmark draw split (4, 2)
@example(case=(HopfieldParams(1.1, 1.0, 0.3, 0.09), "position", 40, 24))  # over one band's budget, not over a share's
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
    """What each band was asked for and what certified it, in call order.

    ``shares``: the share of every Krylov solve.  ``certificates``: the
    threshold and count of every inertia count made with the band's floor;
    the shift probe factors every pivot and passes none.  ``probes``: the
    count of every shift probe.
    """
    calls = {"shares": [], "certificates": [], "probes": []}
    ldl, krylov = hopfield._ldl, hopfield._krylov_levels

    def counted(diag, sub, shift, floor=None):
        factors = ldl(diag, sub, shift, floor)
        if floor is None:
            calls["probes"].append(factors[2])
        else:
            calls["certificates"].append((shift, factors[2]))
        return factors

    def spied(diag, sub, size, share, start, scale):
        calls["shares"].append(share)
        return krylov(diag, sub, size, share, start, scale)

    monkeypatch.setattr(hopfield, "_ldl", counted)
    monkeypatch.setattr(hopfield, "_krylov_levels", spied)
    return calls


def _assert_each_band_certified_for_its_share(certified, count, solves):
    # one Krylov solve and one certificate per band, nothing solved again
    assert len(certified["shares"]) == len(certified["certificates"]) == 2 * solves
    for i in range(0, 2 * solves, 2):
        (threshold, even), (shared, odd) = certified["certificates"][i : i + 2]
        assert threshold == shared  # one threshold for both bands
        assert [even, odd] == certified["shares"][i : i + 2]
        assert even + odd == count


def test_benchmark_box_takes_the_certified_krylov_path(certified):
    truncated_fock_spectrum(HopfieldParams(1.1, 1.0, 0.3, 0.09), n_max=40, n_levels=5)
    _assert_each_band_certified_for_its_share(certified, 6, 1)


def test_a_settled_start_skips_the_shift_probe(certified):
    # a weakly coupled benchmark draw: the principal-block start of both bands already
    # meets the residual test, so no shift is factored and no shifted solve runs
    p = HopfieldParams(0.919, 1.0, 0.163, 0.163**2)
    levels = truncated_fock_spectrum(p, n_max=40, n_levels=5)
    assert certified["probes"] == []
    _assert_each_band_certified_for_its_share(certified, 6, 1)
    reference = _dense_fock_levels(p, 40, "position")[:6]
    assert abs(levels.ground_state_energy - reference[0]) <= 1e-12
    assert np.max(np.abs(levels.excitation_energies - (reference[1:] - reference[0]))) <= 1e-12


def test_a_wrong_split_is_caught_by_the_common_certificate(certified):
    # near the SpC instability the principal blocks bound the levels loosely and
    # predict three of the lowest seven in the even band, where there are four.  The
    # threshold sits just above the odd band's fourth level, the seventh found; the even
    # band counts four levels below it and is solved again for them
    p = HopfieldParams(0.93, 1.0, 0.46, 0.0)
    levels = _lowest_levels(_fock_terms(p, 32), 7)
    assert certified["shares"] == [3, 4, 4]
    assert [count for _, count in certified["certificates"]] == [4, 4]
    assert len({threshold for threshold, _ in certified["certificates"]}) == 1
    assert np.max(np.abs(levels - _dense_fock_levels(p, 32, "position")[:7])) <= 1e-12


def test_a_band_with_no_share_runs_only_its_certificate(certified):
    # the ground level is even: the odd band's share of one level is 0
    p = HopfieldParams(1.1, 1.0, 0.3, 0.09)
    levels = _lowest_levels(_fock_terms(p, 40), 1)
    assert certified["shares"] == [1]
    assert [count for _, count in certified["certificates"]] == [1, 0]
    assert np.max(np.abs(levels - _dense_fock_levels(p, 40, "position")[:1])) <= 1e-12


def _budget(n_max):
    """The most levels a band of ``_band`` at ``n_max`` solves by Krylov: _KRYLOV_BLOCKS blocks of share + 2 fit in half of it."""
    return (n_max + 2) // 2 * (n_max + 1) // 2 // hopfield._KRYLOV_BLOCKS - 2


def _spy(monkeypatch, name):
    """The calls made to ``hopfield.<name>``, as their argument tuples, in call order."""
    calls, function = [], getattr(hopfield, name)

    def spied(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(hopfield, name, spied)
    return calls


def test_each_band_takes_krylov_for_its_share(certified, monkeypatch):
    # 18 levels at n_max 40 are more than the budget of 17, but each band's share is within it
    whole = _spy(monkeypatch, "_dense_levels")
    p = HopfieldParams(1.1, 1.0, 0.3, 0.09)
    levels = truncated_fock_spectrum(p, n_max=40, n_levels=17)
    assert _budget(40) == 17
    assert len(certified["shares"]) == 2 and sum(certified["shares"]) == 18
    assert max(certified["shares"]) <= 17
    assert whole == []
    reference = _dense_fock_levels(p, 40, "position")[:18]
    assert abs(levels.ground_state_energy - reference[0]) <= 1e-12
    assert np.max(np.abs(levels.excitation_energies - (reference[1:] - reference[0]))) <= 1e-12


def test_a_band_over_its_budget_is_solved_whole_and_the_other_by_krylov(certified, monkeypatch):
    # at n_max 20 the budget is 3 levels: the even band's share of 4 goes whole, the odd band's 2 take Krylov
    whole = _spy(monkeypatch, "_dense_levels")
    p = HopfieldParams(0.919, 1.0, 0.163, 0.163**2)
    terms = _fock_terms(p, 20)
    levels = _lowest_levels(terms, 6)
    assert _budget(20) == 3
    assert certified["shares"] == [2]
    assert len(whole) == 1 and whole[0][3] == 6
    assert np.array_equal(whole[0][0], _band(terms, 0)[0])  # the even band, whole
    assert [count for _, count in certified["certificates"]] == [2]  # only the Krylov band is certified
    assert np.max(np.abs(levels - _dense_fock_levels(p, 20, "position")[:6])) <= 1e-12


def test_more_levels_than_both_budgets_skip_the_principal_blocks(monkeypatch):
    # 35 levels at n_max 40 are more than twice the budget of 17: both bands go whole at once
    starts, krylov = _spy(monkeypatch, "_start_block"), _spy(monkeypatch, "_krylov_levels")
    p = HopfieldParams(1.1, 1.0, 0.3, 0.09)
    levels = _lowest_levels(_fock_terms(p, 40), 35)
    assert 35 > 2 * _budget(40)
    assert starts == [] and krylov == []
    assert np.max(np.abs(levels - _dense_fock_levels(p, 40, "position")[:35])) <= 1e-12


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
    _assert_each_band_certified_for_its_share(certified, 6, 2)


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


def test_degenerate_level_wider_than_the_krylov_block_is_solved_whole(monkeypatch):
    # uncoupled, with a vanishing matter frequency: the 15 even states of photon
    # number 0 share the ground level, more copies than a 6-column Krylov block
    # can hold, so the certificate rejects the Krylov levels and the band is diagonalized whole
    p = HopfieldParams(omega_cav=1.0, omega_mat=1e-300, g_qed=0.0)
    whole = []
    dense_levels = hopfield._dense_levels

    def spied(diag, sub, size, count):
        whole.append(diag.shape)
        return dense_levels(diag, sub, size, count)

    monkeypatch.setattr(hopfield, "_dense_levels", spied)
    levels = _lowest_levels(_fock_terms(p, 28), 4)
    assert whole == [(15, 29, 29)] * 2  # both parity bands, the odd one holding 14 copies
    assert np.max(np.abs(levels - _dense_fock_levels(p, 28, "position")[:4])) <= 1e-12


def test_shift_probe_steps_down_until_no_level_lies_below_it(monkeypatch):
    # deep-strong MoC: the principal block's lowest level lies far above the band's, so the
    # first probe shift is not below the spectrum and the probe steps further down
    p = HopfieldParams(omega_cav=0.3, omega_mat=1.0, g_qed=2.0, D=4.0)
    below = []
    ldl = hopfield._ldl

    def counted(diag, sub, shift, floor=None):
        factors = ldl(diag, sub, shift, floor)
        if floor is None:  # the shift probe; the certificate passes the band's floor
            below.append(factors[2])
        return factors

    monkeypatch.setattr(hopfield, "_ldl", counted)
    levels = _lowest_levels(_fock_terms(p, 20), 2)
    assert max(below) > 0 and below.count(0) == 2  # a retry, and one accepted shift per band
    assert np.max(np.abs(levels - _dense_fock_levels(p, 20, "position")[:2])) <= 1e-12


def _krylov_calls(p, n_max, count, stall):
    """Each band's Krylov call as (levels returned, shifted solves), and the lowest ``count`` levels of ``p``.

    A stalled shifted solve returns its input, so the basis fills without converging.
    """
    calls = []
    krylov, solve = hopfield._krylov_levels, hopfield._shifted_solve

    def counted_solve(inverses, multipliers, x):
        calls[-1][1] += 1
        return x if stall else solve(inverses, multipliers, x)

    def spied(*args):
        calls.append([False, 0])
        levels = krylov(*args)
        calls[-1][0] = levels is not None
        return levels

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hopfield, "_krylov_levels", spied)
        patch.setattr(hopfield, "_shifted_solve", counted_solve)
        levels = _lowest_levels(_fock_terms(p, n_max), count)
    return [tuple(call) for call in calls], levels


def test_a_band_that_fills_the_krylov_basis_is_solved_whole():
    # the basis holds at most _KRYLOV_BLOCKS blocks of share + 2 columns: a band that has not
    # converged after one shifted solve per block gives up and is solved whole
    blocks = hopfield._KRYLOV_BLOCKS
    # beyond the SpC instability (4 g^2 > omega_cav omega_mat) the truncated band's lowest
    # levels lie at the largest photon numbers, far from the principal-block start, and need
    # 23 or 24 shifted solves, so the basis fills whether the solve is stalled or not
    p = HopfieldParams(omega_cav=1.0, omega_mat=1.0, g_qed=1.0, D=0.0)
    assert not p.stable
    calls, levels = _krylov_calls(p, 30, 9, stall=True)
    assert (False, blocks) in calls
    assert np.max(np.abs(levels - _dense_fock_levels(p, 30, "position")[:9])) <= 1e-12
    # the benchmark box converges after two shifted solves a band; only the stall fills its basis
    box = HopfieldParams(1.1, 1.0, 0.3, 0.09)
    want = _dense_fock_levels(box, 30, "position")[:6]
    for stall, expected in ((False, [(True, 2)] * 2), (True, [(False, blocks)] * 2)):
        calls, levels = _krylov_calls(box, 30, 6, stall)
        assert calls == expected
        assert np.max(np.abs(levels - want)) <= 1e-12


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
