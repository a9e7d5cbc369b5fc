"""Deterministic eigendecomposition for small real symmetric matrices.

LAPACK (`np.linalg.eigh`) computes the spectrum; the basis it returns inside
a degenerate eigenspace is arbitrary, so only one eigenvector is handed out:
the top eigenspace's canonical unit vector, which depends on that eigenspace
alone.  It is byte-identical on one machine and equal to roundoff across
BLAS builds.  A caller that needs another eigenspace negates or shifts A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ConvergenceError, as_array

SYMMETRY_TOL = 1e-12
CLUSTER_GAP = 1e-8
RESIDUAL_TOL = 1e-9
SIGN_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition:
    """Descending eigenvalues and the top eigenspace's canonical unit vector `top_vector`.

    `residual` is max |A - V diag(w) V^T| and `gram_error` max |V^T V - I|
    for LAPACK's eigenvectors V.  Eigenvalues within CLUSTER_GAP * `scale`
    count as one cluster, so rescaling A leaves the clusters alone.  `scale`
    is max |A|; a caller that decomposes the restriction of a larger matrix
    sets it to that matrix's max |entry|, as the restriction can be roundoff.
    """

    eigenvalues: np.ndarray
    top_vector: np.ndarray
    residual: float
    gram_error: float
    scale: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def min_gap(self) -> float:
        """Smallest gap between adjacent clusters (inf when there is one)."""
        # halved, as symmetric_spectrum's top-block cut: the gap of eigenvalues
        # near +-float64 max overflows, and a Python float doubles to inf quietly
        gaps = self.eigenvalues[:-1] / 2.0 - self.eigenvalues[1:] / 2.0
        return 2.0 * float(gaps[gaps > CLUSTER_GAP * self.scale / 2.0].min(initial=np.inf))

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


def _canonical_vector(block: np.ndarray) -> np.ndarray:
    """Unit vector in the column span of `block` that depends only on that span.

    A single column is taken as it is.  Otherwise it is B b_i / |b_i| for
    B = `block`, its rows b_i and the first i with |b_i| >= 0.5/sqrt(d): the
    projector's column P e_i / |P e_i|, as P = B B^T.  The squared row norms
    sum to the span's dimension, so one reaches 1/sqrt(d) unless B lost rank.
    """
    d, k = block.shape
    if k == 1:
        v = block[:, 0].copy()
    else:
        norms = np.linalg.norm(block, axis=1)
        reached = np.flatnonzero(norms >= 0.5 / np.sqrt(d))
        if not reached.size:
            raise ConvergenceError(f"eigenvector cluster of size {k} has lost rank")
        v = block @ block[reached[0]] / norms[reached[0]]
    # components tie within roundoff in S_n-symmetric operators: the lowest index decides
    mags = np.abs(v)
    if v[np.argmax(mags >= mags.max() - SIGN_TIE_TOL)] < 0.0:
        v *= -1.0
    return v


def symmetric_spectrum(matrix) -> SpectralDecomposition:
    """Eigenvalues, sorted descending with a stable sort, and `top_vector`:
    the top eigenspace's `_canonical_vector`, its first largest-magnitude
    component (within SIGN_TIE_TOL) made positive.  Complex and boolean input
    is refused.  LAPACK's V is checked for V^T V = I to 1e-9 and for
    A = V diag(w) V^T, `top_vector` for unit norm to 1e-9 and for A v = w_0 v,
    both to 1e-9 * max(1, max|A|): relative above unit scale, absolute below
    it, where it also merges eigenvalues into clusters, so a caller with
    small entries rescales A to unit scale first.
    """
    A = as_array(matrix, "matrix", ndim=2, error=ContractError)
    if A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ContractError(f"expected a non-empty square matrix, got shape {A.shape}")
    if np.abs(A - A.T).max() > SYMMETRY_TOL:
        raise ContractError("matrix is not symmetric within 1e-12")
    d = A.shape[0]
    # in halves: (A + A.T) overflows for entries near the float64 maximum
    A = A / 2.0 + A.T / 2.0
    scale = float(np.abs(A).max())
    tolerance = RESIDUAL_TOL * max(1.0, scale)

    eigenvalues, V = np.linalg.eigh(A)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    V = V[:, order]
    gram = float(np.abs(V.T @ V - np.eye(d)).max())
    residual = float(np.abs(A - (V * eigenvalues) @ V.T).max())
    # The top block ends at the first gap of at least tolerance/d: it then
    # spans less than the tolerance, so any unit vector in it keeps A v = w_0 v
    # within it.  The cluster width is too wide for this.  Halved, as above.
    cuts = np.flatnonzero(eigenvalues[:-1] / 2.0 - eigenvalues[1:] / 2.0 >= tolerance / d / 2.0)
    top = _canonical_vector(V[:, : int(cuts[0]) + 1 if cuts.size else d])
    top_error = float(np.abs(A @ top - eigenvalues[0] * top).max())
    norm_error = abs(float(np.linalg.norm(top)) - 1.0)
    if max(gram, norm_error) > RESIDUAL_TOL or max(residual, top_error) > tolerance:
        raise ConvergenceError(
            f"decomposition failed contract: gram {gram:.2e}, residual {residual:.2e}, "
            f"top vector norm error {norm_error:.2e}, residual {top_error:.2e}"
        )
    eigenvalues.setflags(write=False)
    top.setflags(write=False)
    return SpectralDecomposition(eigenvalues, top, residual, gram, scale)


def hermitian_min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a complex Hermitian matrix.

    The input is symmetrized first; callers check Hermiticity to their own
    tolerance.
    """
    H = as_array(matrix, "matrix", complex, ndim=2, error=ContractError)
    if H.shape[0] != H.shape[1] or H.shape[0] == 0:
        raise ContractError(f"expected a non-empty square matrix, got shape {H.shape}")
    H = H / 2.0 + H.conj().T / 2.0
    return float(np.linalg.eigvalsh(H)[0])
