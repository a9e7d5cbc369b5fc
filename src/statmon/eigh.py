"""Deterministic eigendecomposition for small real symmetric matrices.

LAPACK (`np.linalg.eigh`) computes the spectrum; the basis it returns inside
a degenerate eigenvalue cluster is arbitrary, so each cluster is replaced by
a canonical basis that depends only on the cluster's eigenspace.  Downstream
code picks "the first" eigenvector inside degenerate clusters, and this
makes that choice reproducible: byte-identical on one machine, and equal to
roundoff across BLAS builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ConvergenceError

SYMMETRY_TOL = 1e-12
CLUSTER_GAP = 1e-8
RESIDUAL_TOL = 1e-9
SIGN_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with orthonormal eigenvector columns.

    The solver diagnostics come along: `residual` is max |A - V diag(w) V^T|
    and `gram_error` is max |V^T V - I|.  Eigenvalues within the cluster
    width CLUSTER_GAP * `scale` count as one cluster, so rescaling A leaves
    the clusters alone.  `scale` is max |A|; a caller that decomposes the
    restriction of a larger matrix sets it to that matrix's max |entry|,
    because the restriction can be pure roundoff.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float
    gram_error: float
    scale: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def min_gap(self) -> float:
        """Smallest gap between adjacent clusters (inf when there is one)."""
        gaps = self.eigenvalues[:-1] - self.eigenvalues[1:]
        return float(gaps[gaps > CLUSTER_GAP * self.scale].min(initial=np.inf))

    def cluster_slice(self, value: float) -> slice:
        """Index range of the eigenvalue cluster containing `value`."""
        width = CLUSTER_GAP * self.scale
        close = np.abs(self.eigenvalues - value) <= width
        if not close.any():
            raise ConvergenceError(f"no eigenvalue within {width:.3g} of {value}")
        idx = np.nonzero(close)[0]
        return slice(int(idx[0]), int(idx[-1]) + 1)

    def degeneracy(self, value: float) -> int:
        s = self.cluster_slice(value)
        return s.stop - s.start


def _canonical_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of `block` that depends only on
    that span.

    Gram-Schmidt on the projector's columns P e_0, P e_1, ... with
    P = block block^T, skipping columns whose residual norm is below
    0.5/sqrt(d).  With m of k vectors kept, the squared residual norms of all
    d columns sum to k - m, so some column reaches 1/sqrt(d) and is kept: the
    loop stops short of k vectors only if the input has lost rank.
    """
    d, k = block.shape
    P = block @ block.T
    basis = np.empty((d, k))
    floor = 0.5 / np.sqrt(d)
    kept = 0
    for i in range(d):
        r = P[:, i] - basis[:, :kept] @ (basis[:, :kept].T @ P[:, i])
        norm = np.linalg.norm(r)
        if norm >= floor:
            basis[:, kept] = r / norm
            kept += 1
            if kept == k:
                return basis
    raise ConvergenceError(f"eigenvector cluster of size {k} has rank {kept}")


def _canonicalize(eigenvalues: np.ndarray, V: np.ndarray, split_gap: float) -> None:
    """Make V (columns sorted by descending eigenvalue) canonical, in place.

    Clusters split wherever adjacent eigenvalues differ by at least
    `split_gap`; each cluster of size > 1 gets its canonical basis, then
    each column's largest-magnitude component (the first within 1e-9 of the
    largest) is made positive.
    """
    cuts = np.flatnonzero(eigenvalues[:-1] - eigenvalues[1:] >= split_gap) + 1
    for block in np.split(np.arange(eigenvalues.shape[0]), cuts):
        if len(block) > 1:
            V[:, block] = _canonical_basis(V[:, block])
    # Components that tie within roundoff (common in S_n-symmetric operators)
    # count as equally large, so the lowest index among them decides the sign.
    mags = np.abs(V)
    lead = np.argmax(mags >= mags.max(axis=0) - SIGN_TIE_TOL, axis=0)
    V *= np.where(V[lead, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)


def symmetric_spectrum(matrix) -> SpectralDecomposition:
    """Full eigendecomposition of a real symmetric matrix.

    Output is deterministic: eigenvalues sorted descending with a stable
    sort, each degenerate eigenspace given a canonical basis that does not
    depend on the one LAPACK returned, and each eigenvector's
    largest-magnitude component made positive.  The result is checked for
    orthonormality and reconstruction to 1e-9 (relative to the largest entry).
    """
    A = np.array(matrix, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ContractError("matrix contains non-finite entries")
    if np.abs(A - A.T).max(initial=0.0) > SYMMETRY_TOL:
        raise ContractError("matrix is not symmetric within 1e-12")
    d = A.shape[0]
    A = (A + A.T) / 2.0
    scale = float(np.abs(A).max())
    tolerance = RESIDUAL_TOL * max(1.0, scale)

    eigenvalues, V = np.linalg.eigh(A)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    V = V[:, order]
    # Eigenvalues closer than tolerance/d count as one eigenspace: a cluster
    # then spans less than the tolerance, so replacing its basis keeps the
    # reconstruction within it.  The cluster width is too wide for this.
    _canonicalize(eigenvalues, V, tolerance / d)

    gram = float(np.abs(V.T @ V - np.eye(d)).max(initial=0.0))
    residual = float(np.abs(A - (V * eigenvalues) @ V.T).max(initial=0.0))
    if gram > RESIDUAL_TOL or residual > tolerance:
        raise ConvergenceError(
            f"decomposition failed contract: gram {gram:.2e}, residual {residual:.2e}"
        )
    eigenvalues.setflags(write=False)
    V.setflags(write=False)
    return SpectralDecomposition(eigenvalues, V, residual, gram, scale)


def hermitian_min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a complex Hermitian matrix.

    The input is symmetrized first; callers check Hermiticity to their own
    tolerance.
    """
    H = np.asarray(matrix, dtype=np.complex128)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ContractError("matrix contains non-finite entries")
    H = (H + H.conj().T) / 2.0
    return float(np.linalg.eigvalsh(H)[0])
