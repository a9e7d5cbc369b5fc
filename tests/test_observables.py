import tracemalloc

import numpy as np
import pytest

from statmon import group_core as gc
from statmon import observables as ob
from statmon import selftest, state3
from statmon import states as st
from statmon.eigh import symmetric_spectrum
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


@pytest.mark.parametrize(
    "state, op, message",
    [
        (
            st.named_state("eq5"),
            gc.exchange_operator(4, gc.Pair(0, 1)),
            "operator dimension 24 does not match state 6",
        ),
        (
            st.MixedState.from_mixture([1.0], [st.named_state("eq5")]),
            gc.exchange_operator(4, gc.Pair(0, 1)),
            "operator dimension 24 does not match state 6",
        ),
        (
            st.MixedState.from_mixture([1.0], [st.named_state("eq5")]),
            np.eye(24),
            r"operator shape \(24, 24\) does not match state dimension 6",
        ),
    ],
    ids=["pure-permutation", "mixed-permutation", "mixed-matrix"],
)
def test_expectation_refuses_an_operator_of_the_wrong_dimension(state, op, message):
    with pytest.raises(ValidationError, match=message):
        ob.expectation(state, op)


def test_v_vector_examples():
    assert np.abs(ob.v_vector(st.named_state("antisym_minus")) + 1.0).max() < 1e-12
    v = ob.v_vector(st.named_state("eq6"))
    assert np.abs(v - np.array([-1.0, 0.5, 0.5])).max() < 1e-12
    mix = st.MixedState.from_mixture(
        [0.5, 0.5], [st.named_state("sym_plus"), st.named_state("antisym_minus")]
    )
    assert np.abs(ob.v_vector(mix)).max() < 1e-12


def test_v_vector_refuses_a_non_state():
    with pytest.raises(ValidationError, match="unsupported state type ndarray"):
        ob.v_vector(st.named_state("eq5").amplitudes)


def test_pure_v_vector_is_its_exchange_rows_row():
    psi = st.random_pure_state(4, 3)
    assert np.array_equal(ob.v_vector(psi), ob.exchange_rows(psi.amplitudes[None, :], 4)[0])


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


@pytest.mark.parametrize("sign", [True, False, np.True_, np.bool_(False), np.array(True)])
def test_a_boolean_is_not_a_sign(sign):
    # True == 1, but scenario files refuse `true` as a sign, and so does chi
    with pytest.raises(ValidationError, match="sign must be"):
        state3.parse_sign(sign)
    with pytest.raises(ValidationError, match="sign must be"):
        ob.chi_state(0.5, 0.5, sign, -1)


def test_numpy_integer_and_text_signs_stay_valid():
    assert [state3.parse_sign(s) for s in (np.int64(1), np.int32(-1), 1, -1, 1.0, "+", "-")] == [1, -1, 1, -1, 1, 1, -1]
    assert np.array_equal(ob.chi_state(0.5, 0.5, np.int64(1), -1).amplitudes, ob.chi_state(0.5, 0.5, 1, -1).amplitudes)


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
    # phi = pi/2 leaves psi_theta alone; a theta's rows run (s1, s2) = (+, +), (+, -), ...
    amps = [row[0] for row in state3.boundary_rows(thetas.tolist(), [np.pi / 2.0])]
    for i, theta in enumerate(thetas):
        Wt = ob.w_theta(theta)
        for k, s2 in enumerate((1, -1)):
            psi = np.array(amps[4 * i + k])
            assert np.linalg.norm(Wt @ psi - s2 * psi) <= 1e-12
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_chi_state_at_theta_zero_is_the_solver_w2_eigenvector():
    # the exact psi0 basis against the eigensolver's canonical eigenvector
    for s2 in (1, -1):
        psi0 = symmetric_spectrum(s2 * ob.w_frame().W2).top_vector
        assert np.abs(ob.chi_state(0.0, np.pi / 2.0, +1, s2).amplitudes - psi0).max() <= 1e-15


@pytest.mark.parametrize("n", [3, 4])
def test_exchange_rows_matches_v_vector(n):
    rng = np.random.default_rng(40 + n)
    amps = st.random_amplitudes(n, 20, rng)
    rows = ob.exchange_rows(amps, n)
    subset = gc.canonical_pairs(n)[::-2]
    picked = ob.exchange_rows(amps, n, subset)
    ops = gc.all_exchange_operators(n)
    for a, row, part in zip(amps, rows, picked):
        # per-operator expectations: a reference independent of exchange_rows
        v = np.array([ob.expectation(st.PureState(n, a), op) for op in ops])
        assert np.abs(row - v).max() <= 1e-12
        expected = [v[gc.canonical_pairs(n).index(p)] for p in subset]
        assert np.abs(part - expected).max() <= 1e-12


def _whole_batch_rows(amps, n, pairs):
    """Reference: each pair's products and row sums over the whole batch at once."""
    parts = (amps.real, amps.imag) if np.iscomplexobj(amps) else (amps,)
    cols = []
    for pair in pairs:
        m = gc.exchange_operator(n, pair).mapping
        lo = np.flatnonzero(m > np.arange(m.size))
        cols.append(2.0 * sum(q[:, lo] * q[:, m[lo]] for q in parts).sum(axis=1))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("extra", [1, 3])
def test_exchange_rows_blocks_give_batch_independent_bits(monkeypatch, n, dtype, extra):
    monkeypatch.setattr(ob, "ROW_BLOCK_BYTES", 2**12)
    pairs = gc.canonical_pairs(n)[::-2]
    parts = 2 if dtype is np.complex128 else 1
    block = max(2, ob.ROW_BLOCK_BYTES // (8 * parts * gc.factorial_dim(n) // 2 * len(pairs)))
    amps = st.random_amplitudes(n, 2 * block + extra, np.random.default_rng(n))
    amps = np.ascontiguousarray(amps if parts == 2 else amps.real)
    batch = ob.exchange_rows(amps, n, pairs)
    assert batch.tobytes() == _whole_batch_rows(amps, n, pairs).tobytes()
    for a, row in zip(amps, batch):
        assert ob.exchange_rows(a[None, :], n, pairs).tobytes() == row[None, :].tobytes()


def test_exchange_rows_scratch_does_not_grow_with_the_batch():
    amps = st.random_amplitudes(4, 100000, np.random.default_rng(7))
    tracemalloc.start()
    try:
        out = ob.exchange_rows(amps, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2 * 2**20


def test_exchange_rows_input_contract():
    amps = st.random_amplitudes(3, 2, np.random.default_rng(5))
    with pytest.raises(ValidationError):
        ob.exchange_rows(np.zeros((2, 7)), 3)
    with pytest.raises(ValidationError):
        ob.exchange_rows(amps[0], 3)
    assert ob.exchange_rows(amps, 3, []).shape == (2, 0)
    assert ob.exchange_rows(amps[:0], 3).shape == (0, 3)
    for pair in (gc.Pair(0, 3), (0, 1)):
        with pytest.raises(ValidationError, match="invalid for n = 3"):
            ob.exchange_rows(amps, 3, [gc.Pair(0, 1), pair])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mixed_v_gather_matches_the_per_operator_route(n):
    rng = np.random.default_rng(60 + n)
    components = [st.PureState(n, a) for a in st.random_amplitudes(n, 3, rng)]
    rho = st.MixedState.from_mixture(rng.dirichlet(np.ones(3)), components)
    by_operator = [ob.expectation(rho, op) for op in gc.all_exchange_operators(n)]
    assert np.abs(ob.v_vector(rho) - by_operator).max() <= 1e-15
