"""Pure and mixed states over the word basis, plus the named-state catalog."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import eigh, group_core
from .errors import CapacityError, ValidationError, as_seed

NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
DENSITY_MAX_BYTES = 2**24  # one n! x n! complex density matrix: n = 6 takes 8.3 MB, n = 7 0.4 GB

NAMED_STATES = (
    "sym_plus",
    "antisym_minus",
    "eq5",
    "eq6",
    "phi_eq23",
    "nontransitive_3_5",
    "chi",
)


def _boxes_from_dim(dim: int) -> int:
    for n in range(2, group_core.MAX_BOXES + 1):
        if math.factorial(n) == dim:
            return n
    raise ValidationError(f"amplitude vector length {dim} is not n! for supported n")


class PureState:
    """Unit-norm complex amplitude vector over the canonical word basis."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes):
        n = group_core.validate_box_count(n)
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        dim = group_core.factorial_dim(n)
        if amps.shape[0] != dim:
            raise ValidationError(f"expected {dim} amplitudes for n = {n}, got {amps.shape[0]}")
        if not np.isfinite(amps).all():
            raise ValidationError("amplitudes contain non-finite entries")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")
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
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def __repr__(self):
        return f"PureState(n={self.n}, amplitudes={self.amplitudes!r})"


def normalize(amplitudes, n: int | None = None) -> PureState:
    """Rescale an amplitude vector (or state) to unit norm.

    Raises on the zero vector; already-normalized input comes back
    unchanged up to roundoff.
    """
    if isinstance(amplitudes, PureState):
        n = amplitudes.n
        amps = np.array(amplitudes.amplitudes)
    else:
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        if n is None:
            n = _boxes_from_dim(amps.shape[0])
    if not np.isfinite(amps).all():
        raise ValidationError("amplitudes contain non-finite entries")
    norm = np.linalg.norm(amps)
    if norm <= 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return PureState(n, amps / norm)


def apply(op: group_core.PermutationOperator, state: PureState) -> PureState:
    """Apply a basis-permuting operator: output[mapping[i]] = input[i]."""
    if op.dim != state.dim or op.n != state.n:
        raise ValidationError(f"operator dimension {op.dim} does not match state {state.dim}")
    out = np.empty_like(state.amplitudes)
    out[op.mapping] = state.amplitudes
    return PureState(state.n, out)


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """Physical equality: overlap modulus within tol of 1."""
    if a.n != b.n:
        return False
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def gaussian_parts(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2, count, n!) iid standard normals: every real part, then every
    imaginary part, of `count` complex Gaussian rows in one draw from `rng`."""
    return rng.standard_normal((2, count, group_core.factorial_dim(n)))


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


def _check_density_capacity(n: int) -> int:
    """n! for a density matrix within DENSITY_MAX_BYTES; CapacityError otherwise."""
    dim = group_core.factorial_dim(n)
    if dim * dim * 16 > DENSITY_MAX_BYTES:
        raise CapacityError(
            f"a density matrix for n = {n} takes {dim * dim * 16} bytes, "
            f"over the {DENSITY_MAX_BYTES}-byte budget"
        )
    return dim


class MixedState:
    """Hermitian, unit-trace, positive-semidefinite density matrix."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix):
        n = group_core.validate_box_count(n)
        dim = _check_density_capacity(n)
        rho = np.array(matrix, dtype=np.complex128)
        if rho.shape != (dim, dim):
            raise ValidationError(f"expected a {dim}x{dim} matrix for n = {n}, got {rho.shape}")
        finite = np.isfinite(rho)
        if not finite.all():  # NaN compares false, so the checks below would let it through
            i, j = np.argwhere(~finite)[0]
            raise ValidationError(
                f"density matrix entry ({i}, {j}) is {rho[i, j]}; {(~finite).sum()} entries are not finite"
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
        w = np.asarray(weights, dtype=np.float64)
        states = list(states)
        if w.ndim != 1 or len(states) != w.shape[0] or w.shape[0] == 0:
            raise ValidationError("weights and states must be equally many and nonempty")
        if not np.isfinite(w).all():
            raise ValidationError(f"mixture weights must be finite, got {w.tolist()}")
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValidationError("mixture weights must be nonnegative and sum to 1")
        n = states[0].n
        dim = _check_density_capacity(n)
        rho = np.zeros((dim, dim), dtype=np.complex128)
        for wk, psi in zip(w, states):
            if psi.n != n:
                raise ValidationError("all mixture components must share the same n")
            rho += wk * psi.projector()
        return cls(n, rho)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


_R6 = 1.0 / np.sqrt(6.0)

# Catalog states given word by word, as {word: amplitude}
_CATALOG3 = {
    "sym_plus": dict.fromkeys(("ABC", "BAC", "CAB", "CBA", "ACB", "BCA"), _R6),
    # each word's amplitude carries the sign of its permutation
    "antisym_minus": {"ABC": _R6, "BAC": -_R6, "CAB": _R6, "CBA": -_R6, "ACB": -_R6, "BCA": _R6},
    # (|ABC> + |BAC> - |ACB> - |BCA>) / 2: bosonic AB pair with the most
    # fermionic BC/AC behavior, v = (1, -1/2, -1/2)
    "eq5": {"ABC": 0.5, "BAC": 0.5, "ACB": -0.5, "BCA": -0.5},
    # fermionic AB pair with the most bosonic rest, v = (-1, 1/2, 1/2)
    "eq6": {"ABC": 0.5, "BAC": -0.5, "ACB": 0.5, "BCA": -0.5},
    # component of the nontransitive state, v = (1/2, 1/2, -1)
    "phi_eq23": {"ABC": 0.5, "BAC": 0.5, "CBA": -0.5, "BCA": -0.5},
}


@lru_cache(maxsize=None)
def _catalog3(name: str) -> tuple[complex, ...]:
    ordering = group_core.BasisOrdering.canonical(3)
    amps = np.zeros(6, dtype=np.complex128)
    for word, amp in _CATALOG3[name].items():
        amps[ordering.word_to_index(group_core.parse_word(word))] = amp
    return tuple(amps)


def named_state(name: str, **params) -> PureState:
    """Resolve a catalog name to a normalized three-box state.

    `chi` takes keyword parameters theta in [0, 2pi), phi in [0, pi/2] and
    signs s1, s2 in {+1, -1}; the other names take none.
    """
    if name == "chi":
        from . import observables  # deferred: observables imports this module

        try:
            return observables.chi_state(**params)
        except TypeError as exc:  # a missing, unexpected or non-numeric parameter
            raise ValidationError(f"chi takes theta, phi, s1 and s2: {exc}") from None
    if params:
        raise ValidationError(f"state {name!r} takes no parameters")
    if name == "nontransitive_3_5":
        phi_part = np.asarray(_catalog3("phi_eq23"))
        sym = np.asarray(_catalog3("sym_plus"))
        return PureState(3, np.sqrt(4.0 / 5.0) * phi_part + sym / np.sqrt(5.0))
    if name not in NAMED_STATES:
        raise ValidationError(f"unknown named state {name!r}; choose from {NAMED_STATES}")
    return PureState(3, np.asarray(_catalog3(name)))


def state_to_jsonable(state: PureState) -> dict:
    """Schema: {"n": int, "ordering": "paper3"|"lex", "amplitudes": [[re, im], ...]}."""
    return {
        "n": state.n,
        "ordering": state.ordering.kind,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_jsonable(obj: dict) -> PureState:
    try:
        n = group_core.validate_box_count(obj["n"])
        ordering_kind = obj["ordering"]
        raw = obj["amplitudes"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from None
    if ordering_kind not in ("paper3", "lex"):
        raise ValidationError(f"unknown ordering {ordering_kind!r}")
    try:
        amps = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed amplitude list: {exc}") from None
    source = group_core.BasisOrdering(n, ordering_kind)
    canonical = group_core.BasisOrdering.canonical(n)
    if amps.shape[0] != source.dim:
        raise ValidationError(f"expected {source.dim} amplitudes for n = {n}, got {amps.shape[0]}")
    # entry k: the source amplitude of the canonical basis's k-th word
    return PureState(n, amps[source.indices(canonical.word_array)])
