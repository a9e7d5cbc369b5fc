"""Exchange expectations, the v-vector, and the W-operator family.

The three n = 3 exchange operators are repackaged by the W-frame w1, w2,
w3 that `region` writes down, as W_i = sum_XY (w_i)_XY pi_XY, so that
<W_i> = w_i.v.  W1 commutes with and annihilates W2, W3, while W2 and W3
anticommute with equal squares, so the rotated operator
W_theta = W2 cos(theta) + W3 sin(theta) has theta-independent square.
These identities are what make the double-cone membership test exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import group_core, region, state3
from .errors import ContractError, ConvergenceError, ValidationError, as_array, as_real
from .state3 import validate_angle as _validate_angle
from .states import MixedState, PureState

HERMITICITY_TOL = 1e-12
IMAG_RESIDUE_TOL = 1e-9
ROW_BLOCK_BYTES = 2**18  # products held at once by exchange_rows: well inside L2


def _as_operator(op, dim: int):
    """Return (mapping, matrix) with exactly one of them set."""
    if isinstance(op, group_core.PermutationOperator):
        if op.dim != dim:
            raise ValidationError(f"operator dimension {op.dim} does not match state {dim}")
        if not op.is_involution():
            raise ContractError("permutation operator is not Hermitian (not an involution)")
        return op.mapping, None
    M = as_array(op, "operator", complex, ndim=2)
    if M.shape != (dim, dim):
        raise ValidationError(f"operator shape {M.shape} does not match state dimension {dim}")
    if np.abs(M - M.conj().T).max(initial=0.0) > HERMITICITY_TOL:
        raise ContractError("operator is not Hermitian within 1e-12")
    return None, M


def expectation(state: PureState | MixedState, op) -> float:
    """<Op> in a pure or mixed state; Op must be Hermitian.

    The imaginary residue is checked against 1e-9 and discarded.
    """
    if not isinstance(state, (PureState, MixedState)):
        raise ValidationError(f"unsupported state type {type(state).__name__}")
    mapping, M = _as_operator(op, state.dim)
    if isinstance(state, PureState):
        amps = state.amplitudes
        value = complex(np.vdot(amps, amps[mapping] if M is None else M @ amps))
    elif M is None:
        value = complex(state.matrix[np.arange(state.dim), mapping].sum())
    else:
        value = complex(np.trace(state.matrix @ M))
    if abs(value.imag) > IMAG_RESIDUE_TOL:
        raise ConvergenceError(f"expectation has imaginary residue {value.imag:.2e}")
    return float(value.real)


def exchange_rows(amps, n: int, pairs=None) -> np.ndarray:
    """Batched <psi|Pi_XY|psi> for every unit amplitude row of `amps`.

    `amps` has shape (N, n!); the result has shape (N, len(pairs)), its
    columns following `pairs` (default: the canonical pairs of n, so each row
    is that state's v-vector). Rows are taken as already normalized. They are
    worked through in blocks of about ROW_BLOCK_BYTES of products, so the
    scratch memory does not grow with N.
    """
    dim = group_core.factorial_dim(n)
    amps = np.asarray(amps)
    if amps.ndim != 2 or amps.shape[1] != dim:
        raise ValidationError(f"amplitude rows for n = {n} need shape (N, {dim}), got {amps.shape}")
    table = group_core.exchange_table(n)
    try:
        rows = slice(None) if pairs is None else [table.row[pair] for pair in pairs]
    except KeyError as exc:
        raise ValidationError(f"pair {exc.args[0]} invalid for n = {n}") from None
    lo, hi = table.lo[rows], table.hi[rows]
    out = np.empty((len(amps), len(lo)))
    if not len(lo):
        return out
    # one real row per state, its amplitudes' real and imaginary parts
    # interleaved: part p of amplitude k sits in column 2k + p. Flat column
    # indices are ordered (part, k < m(k), pair).
    lo, hi = ((2 * ix.T + np.arange(2)[:, None, None]).ravel() for ix in (lo, hi))
    step = max(2, ROW_BLOCK_BYTES // (8 * lo.size))
    for start in range(0, len(amps), step):
        # read per block, so a real batch's complex copy stays block-sized
        block = np.ascontiguousarray(amps[start:start + step], dtype=np.complex128).view(np.float64).T
        # Rows and pairs run along the contiguous axis, so both sums add each
        # row's terms one after another in index order: a row gets the same
        # bits in any batch. A lone row is doubled, because numpy adds the
        # terms of a single contiguous row pairwise instead.
        cols = np.ascontiguousarray(block if block.shape[1] > 1 else np.repeat(block, 2, axis=1))
        prod = np.take(cols, lo, axis=0)
        prod *= np.take(cols, hi, axis=0)
        terms = prod.reshape(2, -1).sum(axis=0)
        sums = terms.reshape(-1, out.shape[1], cols.shape[1]).sum(axis=0)
        out[start:start + step] = sums[:, :block.shape[1]].T
    out *= 2.0
    return out


def v_vector(state: PureState | MixedState) -> np.ndarray:
    """Exchange expectations over canonical pairs; for n = 3 the order is
    (v_AB, v_BC, v_AC). A pure state is one row of exchange_rows, so it gets
    the same bits as in any batch. rho is Hermitian, so a mixed state's
    sum of rho[k, m(k)] is 2 Re rho[lo, hi] summed: one gather."""
    if isinstance(state, PureState):
        return exchange_rows(state.amplitudes[None, :], state.n)[0]
    if isinstance(state, MixedState):
        table = group_core.exchange_table(state.n)
        return 2.0 * state.matrix[table.lo, table.hi].real.sum(axis=1)
    raise ValidationError(f"unsupported state type {type(state).__name__}")


@dataclass(frozen=True)
class WFrame:
    """The three n = 3 frame vectors and their operator matrices."""

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.w1, self.w2, self.w3)

    def matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.W1, self.W2, self.W3)


@lru_cache(maxsize=1)
def w_frame() -> WFrame:
    # region's frame of the unit v-vectors e_j: entry j of coordinate i is w_i.e_j
    w1, w2, w3 = region.frame_of_v(*np.eye(3))
    W1, W2, W3 = group_core.exchange_matrix(3, [w1, w2, w3])
    for arr in (w1, w2, w3, W1, W2, W3):
        arr.setflags(write=False)
    return WFrame(w1, w2, w3, W1, W2, W3)


def w_theta(theta: float) -> np.ndarray:
    """W2 cos(theta) + W3 sin(theta) for theta in [0, 2pi)."""
    theta = _validate_angle(theta, 2.0 * np.pi, "theta")
    frame = w_frame()
    return frame.W2 * np.cos(theta) + frame.W3 * np.sin(theta)


def chi_state(theta: float, phi: float, s1, s2) -> PureState:
    """Boundary-family state cos(phi)|s1> + sin(phi)|psi_theta^(s2)>.

    |+1> / |-1> are the fully symmetric / antisymmetric three-box states and
    psi_theta^(+-) is a unit eigenvector of W_theta.  Every such state sits
    exactly on the monogamy region's surface.  W2 and W3 anticommute with
    equal squares, so if W2 psi0 = s psi0 then cos(theta/2) psi0 +
    s sin(theta/2) W3 psi0 is a unit eigenvector of W_theta with eigenvalue
    s: the closed form state3.chi_amplitudes takes, psi0 itself at theta = 0.
    """
    return PureState(3, state3.chi_amplitudes(theta, phi, s1, s2))


def bunching_probability(v: float) -> float:
    """Probability (1 + v)/2 that the pair bunches in a two-port interference
    test; v = +1 is a perfect boson pair."""
    v = as_real(v, "exchange expectation")
    if not np.isfinite(v) or abs(v) > 1.0 + 1e-9:
        raise ValidationError(f"exchange expectation must lie in [-1, 1], got {v}")
    return (1.0 + v) / 2.0


def antibunching_probability(v: float) -> float:
    """Probability (1 - v)/2 of antibunching; v = -1 is a perfect fermion pair."""
    return bunching_probability(-as_real(v, "exchange expectation"))

