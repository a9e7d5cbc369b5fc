import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from statmon import eigh
from statmon.eigh import hermitian_min_eigenvalue, symmetric_spectrum
from statmon.errors import ContractError
from statmon.extremal import Objective


def test_identity_spectrum():
    dec = symmetric_spectrum(np.eye(6))
    assert np.array_equal(dec.eigenvalues, np.ones(6))
    assert np.array_equal(dec.eigenvectors, np.eye(6))


def test_matches_lapack_on_random_matrices():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 7, 24, 48):
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2.0
        dec = symmetric_spectrum(A)
        ref = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.abs(dec.eigenvalues - ref).max() < 1e-10
        assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(d)).max() < 1e-9
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(A - recon).max() < 1e-9


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
    assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(6)).max() < 1e-9
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    assert np.abs(A - recon).max() < 1e-9 * max(1.0, np.abs(A).max())


def test_deterministic_and_sign_convention():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((9, 9))
    A = A + A.T
    d1 = symmetric_spectrum(A)
    d2 = symmetric_spectrum(A.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for j in range(9):
        col = d1.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_degenerate_cluster_stays_orthonormal():
    # eigenvalue 1 with multiplicity 3, eigenvalue -1 with multiplicity 2
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([1.0, 1.0, 1.0, -1.0, -1.0]) @ Q.T
    dec = symmetric_spectrum(A)
    assert np.abs(dec.eigenvalues - np.array([1, 1, 1, -1, -1])).max() < 1e-10
    assert dec.degeneracy(1.0) == 3
    assert dec.degeneracy(-1.0) == 2
    assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5)).max() < 1e-10


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
    # n = 4 objective: a 12-fold top cluster and eigenvectors whose largest
    # components tie, which the sign rule must resolve the same way each time
    triangle = Objective.from_pairs(
        4, {"AB": 1, "AC": 1, "BC": 1, "AD": -1, "BD": -1, "CD": -1}
    ).matrix()
    for A in ((random_clusters + random_clusters.T) / 2.0, triangle):
        reference = symmetric_spectrum(A)
        values, vectors = np.linalg.eigh(A)
        order = np.argsort(-values, kind="stable")
        values, vectors = values[order], vectors[:, order]
        cuts = np.flatnonzero(np.diff(-values) >= eigh.CLUSTER_GAP) + 1
        blocks = np.split(np.arange(len(values)), cuts)
        assert max(map(len, blocks)) > 1
        for _ in range(5):
            V = vectors.copy()
            for block in blocks:
                R, _ = np.linalg.qr(rng.standard_normal((len(block), len(block))))
                V[:, block] = V[:, block] @ R
            eigh._canonicalize(values, V, eigh.CLUSTER_GAP)
            assert np.abs(V - reference.eigenvectors).max() < 1e-12


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
