import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statmon import eigh
from statmon.eigh import hermitian_min_eigenvalue, symmetric_spectrum
from statmon.errors import ContractError, ConvergenceError
from statmon.extremal import Objective


def test_identity_spectrum():
    dec = symmetric_spectrum(np.eye(6))
    assert np.array_equal(dec.eigenvalues, np.ones(6))
    assert np.array_equal(dec.top_vector, np.eye(6)[0])


def test_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 7, 24, 48):
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2.0
        dec = symmetric_spectrum(A)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.abs(dec.eigenvalues - ref).max() < 1e-10
        assert dec.residual < 1e-9
        v = dec.top_vector
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
        assert np.abs(A @ v - dec.eigenvalues[0] * v).max() < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    arrays(
        np.float64,
        (6, 6),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)
def test_decomposition_contract_property(raw):
    A = (raw + raw.T) / 2.0
    dec = symmetric_spectrum(A)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    tolerance = 1e-9 * max(1.0, np.abs(A).max())
    assert dec.residual < tolerance
    v = dec.top_vector
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert np.abs(A @ v - dec.eigenvalues[0] * v).max() < tolerance


def test_deterministic_and_sign_convention():
    rng = np.random.default_rng(2)
    # nine matrices, as LAPACK's own sign is right by chance half the time
    for _ in range(9):
        A = rng.standard_normal((9, 9))
        A = A + A.T
        d1 = symmetric_spectrum(A)
        d2 = symmetric_spectrum(A.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.top_vector, d2.top_vector)
        v = d1.top_vector
        assert v[np.argmax(np.abs(v))] > 0


def test_degenerate_cluster_stays_orthonormal():
    # eigenvalue 1 with multiplicity 3, eigenvalue -1 with multiplicity 2
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ Q.T
    dec = symmetric_spectrum(A)
    assert np.abs(dec.eigenvalues - np.array([1, 1, 1, -1, -1])).max() < 1e-10
    assert dec.degeneracy(1.0) == 3
    assert dec.degeneracy(-1.0) == 2
    v = dec.top_vector
    assert abs(np.linalg.norm(v) - 1.0) < 1e-10
    assert np.abs(A @ v - v).max() < 1e-10


def test_asymmetric_input_rejected():
    A = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ContractError):
        symmetric_spectrum(A)
    with pytest.raises(ContractError):
        symmetric_spectrum(np.ones((2, 3)))


def test_hermitian_min_eigenvalue():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = Z @ Z.conj().T  # PSD
    assert hermitian_min_eigenvalue(H) >= -1e-12
    ref = np.linalg.eigvalsh(H).min()
    assert abs(hermitian_min_eigenvalue(H) - ref) < 1e-9
    shifted = H - np.eye(6) * (ref + 0.5)
    assert abs(hermitian_min_eigenvalue(shifted) - (-0.5)) < 1e-9


def test_diagnostics_returned():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 7, 24, 48):
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2.0
        dec = symmetric_spectrum(A)
        assert 0.0 <= dec.residual < eigh.RESIDUAL_TOL
        assert 0.0 <= dec.gram_error < eigh.RESIDUAL_TOL
        expected_gap = np.diff(-dec.eigenvalues).min(initial=np.inf)
        assert dec.min_gap == expected_gap
    assert symmetric_spectrum(np.eye(4)).min_gap == np.inf
    assert symmetric_spectrum(np.diag([3.0, 1.0, 1.0, 0.5])).min_gap == 0.5


def test_cluster_basis_independent_of_solver_basis():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    random_clusters = Q @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0, 0.5]) @ Q.T
    # n = 4 objective: a 3-fold top cluster and eigenvectors whose largest
    # components tie, which the sign rule must resolve the same way each time
    triangle = Objective.from_pairs(
        4, {"AB": 1, "AC": 1, "BC": 1, "AD": -1, "BD": -1, "CD": -1}
    ).matrix()
    for A in ((random_clusters + random_clusters.T) / 2.0, triangle):
        reference = symmetric_spectrum(A)
        values, vectors = np.linalg.eigh(A)
        order = np.argsort(-values, kind="stable")
        values, vectors = values[order], vectors[:, order]
        top = vectors[:, : reference.degeneracy(values[0])]
        assert top.shape[1] > 1
        for _ in range(5):
            R, _ = np.linalg.qr(rng.standard_normal((top.shape[1], top.shape[1])))
            assert np.abs(eigh._canonical_vector(top @ R) - reference.top_vector).max() < 1e-12


def _projector_column_vector(block):
    """The construction _canonical_vector replaces: P = block block^T built,
    then its first column of norm >= 0.5/sqrt(d), normalized and signed."""
    d = block.shape[0]
    P = block @ block.T
    i = next(i for i in range(d) if np.linalg.norm(P[:, i]) >= 0.5 / np.sqrt(d))
    v = P[:, i] / np.linalg.norm(P[:, i])
    mags = np.abs(v)
    return -v if v[np.argmax(mags >= mags.max() - eigh.SIGN_TIE_TOL)] < 0.0 else v


def test_canonical_vector_is_the_projector_column():
    rng = np.random.default_rng(7)
    blocks = []
    for d in (6, 12, 24, 48):
        for k in range(1, 7):
            Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
            blocks.append(Q)
    # n = 4 triangle objective: clusters of 3 and 6 at -4, -2, 0, 2 and 4, in LAPACK's basis
    triangle = Objective.from_pairs(4, {"AB": 1, "AC": 1, "BC": 1, "AD": -1, "BD": -1, "CD": -1}).matrix()
    values, vectors = np.linalg.eigh(triangle)
    for value in (-4.0, -2.0, 0.0, 2.0, 4.0):
        blocks.append(vectors[:, np.abs(values - value) < 1e-9])
        assert blocks[-1].shape[1] == (3 if abs(value) == 4.0 else 6)
    for block in blocks:
        got = eigh._canonical_vector(block)
        assert np.abs(got - _projector_column_vector(block)).max() < 1e-12
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_canonical_vector_refuses_a_block_that_lost_rank():
    with pytest.raises(ConvergenceError, match="lost rank"):
        eigh._canonical_vector(np.zeros((6, 2)))


def test_near_degenerate_cluster_keeps_contract():
    # 1 + 9e-9 shares a CLUSTER_GAP cluster with the exact pair at 1, but its
    # eigenvector must not be mixed into theirs: that would move the
    # reconstruction by ~9e-9, past the 1e-9 contract.
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([2.0, 1.0 + 9e-9, 1.0, 1.0, 0.0]) @ Q.T
    dec = symmetric_spectrum((A + A.T) / 2.0)
    assert dec.degeneracy(1.0) == 3
    assert dec.residual < eigh.RESIDUAL_TOL
    assert abs(dec.min_gap - (1.0 - 9e-9)) < 1e-12


@pytest.mark.parametrize("matrix", [1j * np.eye(2), np.eye(2, dtype=bool), [[True, 0.0], [0.0, 1.0]]])
def test_complex_and_boolean_input_rejected(matrix):
    with pytest.raises(ContractError):
        symmetric_spectrum(matrix)


def test_empty_matrix_rejected():
    with pytest.raises(ContractError):
        symmetric_spectrum(np.zeros((0, 0)))
    with pytest.raises(ContractError):
        hermitian_min_eigenvalue(np.zeros((0, 0)))


def test_entries_near_float_max_do_not_overflow():
    A = np.array([[1e308, 1e308], [1e308, -1e308]])
    dec = symmetric_spectrum(A)
    assert np.allclose(dec.eigenvalues, [np.sqrt(2.0) * 1e308, -np.sqrt(2.0) * 1e308], rtol=1e-12, atol=0.0)
    assert dec.residual < eigh.RESIDUAL_TOL * 1e308
    assert dec.min_gap == np.inf  # 2.8e308 is past float range: inf, with no overflow warning
    assert abs(hermitian_min_eigenvalue(A) + np.sqrt(2.0) * 1e308) < 1e-12 * 1e308
