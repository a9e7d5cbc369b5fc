import numpy as np
import pytest

from statmon import group_core as gc
from statmon import observables as ob
from statmon import selftest
from statmon import states as st
from statmon.errors import ContractError, ValidationError

AB, BC, AC = (gc.exchange_operator(3, p) for p in gc.canonical_pairs(3))


def test_expectation_examples():
    assert abs(ob.expectation(st.named_state("sym_plus"), AB) - 1.0) < 1e-12
    assert abs(ob.expectation(st.named_state("eq5"), BC) + 0.5) < 1e-12
    assert abs(ob.expectation(st.named_state("nontransitive_3_5"), AC) + 0.6) < 1e-12


def test_expectation_accepts_matrices_and_mixed_states():
    psi = st.named_state("eq5")
    assert abs(ob.expectation(psi, AB.matrix()) - 1.0) < 1e-12
    rho = st.MixedState.from_mixture([1.0], [psi])
    assert abs(ob.expectation(rho, BC) + 0.5) < 1e-12
    assert abs(ob.expectation(rho, BC.matrix()) + 0.5) < 1e-12


def test_expectation_rejects_non_hermitian():
    psi = st.named_state("sym_plus")
    M = np.zeros((6, 6))
    M[0, 1] = 1.0
    with pytest.raises(ContractError):
        ob.expectation(psi, M)
    with pytest.raises(ContractError):
        ob.expectation(psi, gc.cyclic_operator())  # not an involution
    with pytest.raises(ValidationError):
        ob.expectation(psi, np.eye(4))


def test_v_vector_examples():
    assert np.abs(ob.v_vector(st.named_state("antisym_minus")) + 1.0).max() < 1e-12
    v = ob.v_vector(st.named_state("eq6"))
    assert np.abs(v - np.array([-1.0, 0.5, 0.5])).max() < 1e-12
    mix = st.MixedState.from_mixture(
        [0.5, 0.5], [st.named_state("sym_plus"), st.named_state("antisym_minus")]
    )
    assert np.abs(ob.v_vector(mix)).max() < 1e-12


def test_w_frame_vectors():
    f = ob.w_frame()
    assert np.allclose(f.w1, np.ones(3) / 3.0)
    assert np.allclose(f.w2, np.array([2.0, -1.0, -1.0]) / 3.0)
    assert np.allclose(f.w3, np.array([0.0, 1.0, -1.0]) / np.sqrt(3.0))
    mats = [op.matrix() for op in (AB, BC, AC)]
    for w, W in zip(f.vectors(), f.matrices()):
        assert np.abs(W - sum(c * M for c, M in zip(w, mats))).max() < 1e-15


def test_w_theta_endpoints_exact():
    f = ob.w_frame()
    assert np.array_equal(ob.w_theta(0.0), f.W2)
    assert np.abs(ob.w_theta(np.pi / 2.0) - f.W3).max() < 1e-15


# These run the selftest check that asserts each invariant.
def test_w_theta_square_is_theta_independent():
    selftest.w_algebra()


def test_w_algebra_identities():
    selftest.w_algebra()


def test_w1_spectrum():
    selftest.w_spectra()


def test_w23_eigenvalues_in_unit_set():
    selftest.w_spectra()


def test_chi_state_expectations():
    # phi = 0 collapses to the symmetric/antisymmetric state
    chi = ob.chi_state(1.2, 0.0, +1, -1)
    assert st.equal_up_to_global_phase(chi, st.named_state("sym_plus"))
    # phi = pi/2, theta = 0, s2 = + gives <W1> = 0, <W2> = 1
    chi = ob.chi_state(0.0, np.pi / 2.0, +1, +1)
    f = ob.w_frame()
    assert abs(ob.expectation(chi, f.W1)) < 1e-12
    assert abs(ob.expectation(chi, f.W2) - 1.0) < 1e-9
    v = ob.v_vector(chi)
    assert np.abs(v - np.array([1.0, -0.5, -0.5])).max() < 1e-9


def test_chi_tradeoff_saturation():
    rng = np.random.default_rng(17)
    f = ob.w_frame()
    for _ in range(25):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.uniform(0.0, np.pi / 2.0)
        s1, s2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        chi = ob.chi_state(theta, phi, s1, s2)
        total = abs(ob.expectation(chi, f.W1)) + abs(
            ob.expectation(chi, ob.w_theta(theta))
        )
        assert abs(total - 1.0) < 1e-9


def test_angle_validation():
    with pytest.raises(ValidationError):
        ob.w_theta(-0.1)
    with pytest.raises(ValidationError):
        ob.w_theta(7.0)
    with pytest.raises(ValidationError):
        ob.chi_state(0.1, 2.0, +1, +1)  # phi beyond pi/2
    with pytest.raises(ValidationError):
        ob.chi_state(0.1, 0.1, 0, +1)


def test_bunching_probability():
    assert ob.bunching_probability(1.0) == 1.0
    assert abs(ob.bunching_probability(0.6) - 0.8) < 1e-15
    assert abs(ob.antibunching_probability(-0.6) - 0.8) < 1e-15
    assert ob.bunching_probability(0.6) > 0.75
    with pytest.raises(ValidationError):
        ob.bunching_probability(1.5)


def test_closed_form_boundary_vector_is_w_theta_eigenvector():
    # theta up to the last double below 2pi, where the half-angle form must
    # still give an eigenvector of W_theta and not of W_{theta - 2pi}
    thetas = np.append(np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False), np.nextafter(2.0 * np.pi, 0.0))
    amps = ob.chi_amplitudes(thetas, [np.pi / 2.0])  # phi = pi/2 leaves psi_theta alone
    for i, theta in enumerate(thetas):
        Wt = ob.w_theta(theta)
        for k, s2 in enumerate((1, -1)):
            psi = amps[i, 0, 0, k]
            assert np.linalg.norm(Wt @ psi - s2 * psi) <= 1e-12
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_chi_state_at_theta_zero_is_the_solver_w2_eigenvector():
    dec = ob.symmetric_spectrum(ob.w_frame().W2)
    for s2 in (1, -1):
        psi0 = dec.eigenvectors[:, dec.cluster_slice(float(s2)).start]
        assert np.abs(ob.chi_state(0.0, np.pi / 2.0, +1, s2).amplitudes - psi0).max() <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_exchange_rows_matches_v_vector(n):
    rng = np.random.default_rng(40 + n)
    amps = st.random_amplitudes(n, 20, rng)
    rows = ob.exchange_rows(amps, n)
    subset = gc.canonical_pairs(n)[::-2]
    picked = ob.exchange_rows(amps, n, subset)
    for a, row, part in zip(amps, rows, picked):
        v = ob.v_vector(st.PureState(n, a))
        assert np.abs(row - v).max() <= 1e-12
        expected = [v[gc.canonical_pairs(n).index(p)] for p in subset]
        assert np.abs(part - expected).max() <= 1e-12
