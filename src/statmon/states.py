"""Pure and mixed states over the word basis, plus the named-state catalog."""

from __future__ import annotations

import math

import numpy as np

from . import eigh, group_core, state3
from .errors import ValidationError, as_array, as_instance, as_items, as_real, as_seed
from .group_core import check_dense_capacity
from .state3 import NAMED_STATES, gaussian_parts  # NAMED_STATES: the names named_state takes

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
DENSITY_MAX_BYTES = group_core.DENSE_MAX_BYTES  # the byte budget of a density matrix


def _boxes_from_dim(dim: int) -> int:
    for n in range(2, state3.MAX_BOXES + 1):
        if math.factorial(n) == dim:
            return n
    raise ValidationError(f"amplitude vector length {dim} is not n! for supported n")


class PureState:
    """Unit-norm complex amplitude vector over the canonical word basis."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes):
        n = group_core.validate_box_count(n)
        amps = as_array(amplitudes, "amplitudes", complex, finite=False)  # check_amplitudes refuses NaN and inf
        state3.check_amplitudes(n, amps.tolist())
        self.n = n
        self.amplitudes = amps
        self.amplitudes.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def ordering(self) -> group_core.BasisOrdering:
        return group_core.BasisOrdering.canonical(self.n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def projector(self) -> np.ndarray:
        check_dense_capacity(self.n, "a projector", 16)
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def __repr__(self):
        return f"PureState(n={self.n}, amplitudes={self.amplitudes!r})"


def normalize(amplitudes, n: int | None = None) -> PureState:
    """Rescale an amplitude vector (or state) to unit norm.

    Raises on the zero vector; already-normalized input comes back
    unchanged up to roundoff.
    """
    if isinstance(amplitudes, PureState):
        n, amps = amplitudes.n, amplitudes.amplitudes
    else:
        amps = as_array(amplitudes, "amplitudes", complex)
        if n is None:
            n = _boxes_from_dim(amps.shape[0])
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if norm == 0.0 or np.isinf(norm):
        # the squares underflowed or overflowed: divide by the largest real or
        # imaginary part first (only here, so other input keeps its bits)
        parts = amps.view(np.float64)  # a real divisor: complex division would take 1/largest
        largest = np.abs(parts).max(initial=0.0)
        if largest == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        amps = (parts / largest).view(np.complex128)
        norm = np.linalg.norm(amps)
    return PureState(n, amps / norm)


def apply(op: group_core.PermutationOperator, state: PureState) -> PureState:
    """Apply a basis-permuting operator: output[mapping[i]] = input[i]."""
    op, state = as_instance(op, group_core.PermutationOperator, "operator"), as_instance(state, PureState, "state")
    if op.dim != state.dim or op.n != state.n:
        raise ValidationError(f"operator dimension {op.dim} does not match state {state.dim}")
    out = np.empty_like(state.amplitudes)
    out[op.mapping] = state.amplitudes
    return PureState(state.n, out)


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Physical equality: overlap modulus within tol of 1."""
    a, b, tol = as_instance(a, PureState, "state"), as_instance(b, PureState, "state"), as_real(tol, "tolerance")
    if a.n != b.n:
        return False
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def gaussian_amplitudes(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n!) iid standard complex Gaussians, not normalized: the rows
    of gaussian_parts as complex numbers."""
    parts = gaussian_parts(n, count, rng)
    z = np.empty(parts.shape[1:], dtype=np.complex128)
    z.real, z.imag = parts
    return z


def random_amplitudes(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are unit vectors drawn from the rotation-invariant distribution."""
    z = gaussian_amplitudes(n, count, rng)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def random_pure_state(n: int, seed: int) -> PureState:
    """Haar-like random state: iid complex Gaussians, normalized.

    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(as_seed(seed))
    return PureState(n, random_amplitudes(n, 1, rng)[0])


class MixedState:
    """Hermitian, unit-trace, positive-semidefinite density matrix."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix):
        n = group_core.validate_box_count(n)
        dim = check_dense_capacity(n, "a density matrix", 16)
        rho = as_array(matrix, "density matrix", complex, ndim=2, finite=False)
        if rho.shape != (dim, dim):
            raise ValidationError(f"expected a {dim}x{dim} matrix for n = {n}, got {rho.shape}")
        # a PSD unit-trace matrix has |rho_ij| <= 1: a larger entry could overflow
        # the sums below, and NaN, which compares false, would pass them
        bad = ~(np.abs(rho) <= 1.0 + TRACE_TOL)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError(
                f"density matrix entry ({i}, {j}) is {rho[i, j]}; {bad.sum()} entries are not finite or above 1"
            )
        if np.abs(rho - rho.conj().T).max(initial=0.0) > HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian within 1e-9")
        trace = complex(np.trace(rho))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix trace {trace} differs from 1")
        if eigh.hermitian_min_eigenvalue(rho) < -PSD_TOL:
            raise ValidationError("density matrix has an eigenvalue below -1e-9")
        self.n = n
        # keep the Hermitian part, so the anti-Hermitian residue the check
        # above allows never becomes an imaginary expectation; exactly
        # Hermitian input keeps its bits
        self.matrix = (rho + rho.conj().T) / 2.0
        self.matrix.setflags(write=False)

    @classmethod
    def from_mixture(cls, weights, states) -> "MixedState":
        """Convex mixture of pure-state projectors."""
        w = as_array(weights, "mixture weights")
        states = as_items(states, PureState, "mixture components")
        if len(states) != w.shape[0] or w.shape[0] == 0:
            raise ValidationError("weights and states must be equally many and nonempty")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        n = states[0].n
        dim = check_dense_capacity(n, "a density matrix", 16)
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for wk, psi in zip(w, states):
            if psi.n != n:
                raise ValidationError("all mixture components must share the same n")
            rho += wk * psi.projector()
        return cls(n, rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def named_state(name: str, **params) -> PureState:
    """Resolve a catalog name to a normalized three-box state.

    `chi` takes keyword parameters theta in [0, 2pi), phi in [0, pi/2] and
    signs s1, s2 in {+1, -1}; the other names take none.
    """
    return PureState(3, state3.named_amplitudes(name, **params))


def state_to_jsonable(state: PureState) -> dict:
    """Schema: {"n": int, "ordering": "paper3"|"lex", "amplitudes": [[re, im], ...]}."""
    state = as_instance(state, PureState, "state")
    return state3.state_jsonable(state.n, state.amplitudes)


def state_from_jsonable(obj: dict) -> PureState:
    return PureState(*state3.read_state(obj))
