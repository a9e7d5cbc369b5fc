"""Extremal exchange expectations via eigenvalue maximization.

Unconstrained problems reduce to the top eigenvalue of the real symmetric
objective matrix.  Perfect-statistics constraints (v_XY = +-1) are
eigenspace conditions, so the constrained problem is the same eigenvalue
problem restricted to the joint constraint eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import group_core, observables, states
from .eigh import symmetric_spectrum
from .errors import CapacityError, ConvergenceError, InfeasibleError, ValidationError

KERNEL_TOL = 1e-10
RESULT_TOL = 1e-9
# Bounds every entry of the objective matrix; sums over a row of up to 5! = 120
# entries and the symmetrization's doubling then stay far from overflow.
WEIGHT_SUM_MAX = 1e300
DENSE_EIG_MAX_BOXES = 5  # dense n! x n! eigensolves stop being desk scale at 6! = 720
SEARCH_BATCH_MAX_BYTES = 2**26  # complex amplitudes drawn per round; temporaries add about 3x


def _check_dense_capacity(n: int) -> None:
    if n > DENSE_EIG_MAX_BOXES:
        raise CapacityError(
            f"dense eigenvalue problems support n <= {DENSE_EIG_MAX_BOXES}, got {n}"
        )


@dataclass(frozen=True)
class Objective:
    """Linear objective sum of c_XY * Pi_XY over canonical pairs."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        n = group_core.validate_box_count(self.n)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        pairs = group_core.canonical_pairs(n)
        if w.shape[0] != len(pairs):
            raise ValidationError(f"expected {len(pairs)} weights for n = {n}, got {w.shape[0]}")
        if not np.all(np.isfinite(w)) or not np.any(w != 0.0):
            raise ValidationError("objective needs at least one finite nonzero weight")
        with np.errstate(over="ignore"):
            total = np.abs(w).sum()
        if total > WEIGHT_SUM_MAX:
            raise ValidationError(
                f"objective weights must have absolute sum <= {WEIGHT_SUM_MAX:g}, got {total:g}"
            )
        w.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_pairs(cls, n: int, coefficients: dict) -> "Objective":
        pairs = group_core.canonical_pairs(n)
        lookup = {}
        for key, value in coefficients.items():
            pair = key if isinstance(key, group_core.Pair) else group_core.Pair.parse(str(key))
            if pair in lookup:
                raise ValidationError(f"duplicate objective pair {pair}")
            lookup[pair] = float(value)
        unknown = set(lookup) - set(pairs)
        if unknown:
            raise ValidationError(f"pairs {sorted(map(str, unknown))} invalid for n = {n}")
        return cls(n, np.array([lookup.get(p, 0.0) for p in pairs]))

    @property
    def weight_sum(self) -> float:
        """sum |c_XY|: a bound on every eigenvalue's magnitude."""
        return float(np.abs(self.weights).sum())

    def matrix(self) -> np.ndarray:
        ops = group_core.all_exchange_operators(self.n)
        return sum(c * op.matrix() for c, op in zip(self.weights, ops))


@dataclass(frozen=True)
class Constraint:
    """Perfect-statistics condition v_XY = +1 or -1 on one pair."""

    pair: group_core.Pair
    value: int

    def __post_init__(self):
        if isinstance(self.value, (bool, np.bool_)) or self.value not in (+1, -1):
            raise ValidationError(
                f"constraint on {self.pair} must be exactly +1 or -1, got {self.value!r}; "
                "intermediate targets are not eigenspace conditions"
            )
        object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class ExtremalResult:
    """Optimal value with an attaining state and top-eigenvalue degeneracy."""

    value: float
    state: states.PureState
    degeneracy: int
    v: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "value": float(self.value),
            "degeneracy": int(self.degeneracy),
            "state": states.state_to_jsonable(self.state),
            "v": [float(x) for x in self.v],
        }


def _package(value: float, vector: np.ndarray, degeneracy: int, n: int) -> ExtremalResult:
    state = states.normalize(vector.astype(np.complex128), n)
    return ExtremalResult(
        value=float(value), state=state, degeneracy=degeneracy, v=observables.v_vector(state)
    )


def _check_eigenvalue_reproduced(objective: Objective, achieved: float, value: float) -> None:
    # Roundoff in <psi|M|psi> grows with the entries of M, which sum |c_XY| bounds.
    if abs(achieved - value) > RESULT_TOL * max(1.0, objective.weight_sum):
        raise ConvergenceError(f"eigenstate misses its eigenvalue by {achieved - value:.2e}")


def max_expectation(objective: Objective) -> ExtremalResult:
    """Largest achievable expectation of the objective over all states."""
    _check_dense_capacity(objective.n)
    M = objective.matrix()
    dec = symmetric_spectrum(M)
    value = float(dec.eigenvalues[0])
    result = _package(value, dec.eigenvectors[:, 0], dec.degeneracy(value), objective.n)
    _check_eigenvalue_reproduced(objective, observables.expectation(result.state, M), value)
    return result


def joint_eigenspace_basis(n: int, constraints) -> np.ndarray:
    """Orthonormal basis (columns) of the intersection of the constraints'
    eigenspaces.

    The intersection is the kernel of sum_i (I - s_i Pi_i)/2, a positive
    semidefinite matrix, so one symmetric eigensolve finds it; eigenvalues
    below 1e-10 count as kernel.  Raises InfeasibleError when empty, and
    CapacityError for n above the dense limit before allocating anything.
    """
    n = group_core.validate_box_count(n)
    _check_dense_capacity(n)
    constraints = list(constraints)
    if not constraints:
        return np.eye(group_core.factorial_dim(n))
    seen: dict[group_core.Pair, int] = {}
    for c in constraints:
        if c.pair.y >= n:
            raise ValidationError(f"constraint pair {c.pair} invalid for n = {n}")
        if seen.setdefault(c.pair, c.value) != c.value:
            raise InfeasibleError(f"conflicting constraints on pair {c.pair}")
    dim = group_core.factorial_dim(n)
    accum = np.zeros((dim, dim))
    for pair, value in seen.items():
        op = group_core.exchange_operator(n, pair)
        accum += (np.eye(dim) - value * op.matrix()) / 2.0
    dec = symmetric_spectrum(accum)
    kernel = np.abs(dec.eigenvalues) <= KERNEL_TOL
    if not kernel.any():
        raise InfeasibleError(
            "constraints have an empty joint eigenspace: "
            + ", ".join(f"v_{p}={v:+d}" for p, v in seen.items())
        )
    return dec.eigenvectors[:, kernel]


def constraint_projector(n: int, constraints) -> np.ndarray:
    """Orthogonal projector onto the joint constraint eigenspace."""
    basis = joint_eigenspace_basis(n, constraints)
    return basis @ basis.T


def constrained_extremal(constraints, objective: Objective) -> ExtremalResult:
    """Maximize the objective over states satisfying every constraint.

    Returns the top eigenvalue of the objective restricted to the joint
    constraint eigenspace; the state is the deterministic first eigenvector
    mapped back to the full space and is verified against every constraint.
    """
    constraints = list(constraints)
    basis = joint_eigenspace_basis(objective.n, constraints)
    M = objective.matrix()
    restricted = basis.T @ M @ basis
    # symmetric only to roundoff, which grows with the weights; symmetric_spectrum
    # takes this same average after its absolute 1e-12 symmetry check
    restricted = (restricted + restricted.T) / 2.0
    # cluster at the full objective's scale, max |c_XY|: the restriction can be
    # pure roundoff, as for AB - CD on the v_AB = v_CD = +1 eigenspace
    dec = replace(symmetric_spectrum(restricted), scale=float(np.abs(objective.weights).max()))
    value = float(dec.eigenvalues[0])
    vector = basis @ dec.eigenvectors[:, 0]
    result = _package(value, vector, dec.degeneracy(value), objective.n)
    for c in constraints:
        op = group_core.exchange_operator(objective.n, c.pair)
        got = observables.expectation(result.state, op)
        if abs(got - c.value) > RESULT_TOL:
            raise ConvergenceError(f"solution violates v_{c.pair} = {c.value:+d}: got {got}")
    _check_eigenvalue_reproduced(objective, observables.expectation(result.state, M), value)
    return result


def symmetric_ray_extreme(direction) -> float:
    """Largest t such that t * direction still satisfies the membership test.

    Closed form from the sqrt relation: t = 1 / (|w1.d| + hypot(w2.d, w3.d)).
    Cross-validated by building the boundary state at that point and
    comparing its measured v-vector.
    """
    d = np.asarray(direction, dtype=np.float64).reshape(-1)
    if d.shape != (3,):
        raise ValidationError(f"direction must have 3 components, got {d.shape}")
    if not np.all(np.isfinite(d)) or np.linalg.norm(d) == 0.0:
        raise ValidationError("direction must be a finite nonzero vector")
    w1, w2, w3 = observables.w_frame().vectors()
    lhs = abs(w1 @ d) + np.hypot(w2 @ d, w3 @ d)
    t = float(1.0 / lhs)
    boundary_v = t * d

    axial = float(w1 @ boundary_v)
    cos2 = min(1.0, abs(axial))
    phi = float(np.arccos(np.sqrt(cos2)))
    s1 = +1 if axial >= 0.0 else -1
    radial = np.hypot(w2 @ boundary_v, w3 @ boundary_v)
    theta = float(np.arctan2(w3 @ boundary_v, w2 @ boundary_v)) % (2.0 * np.pi) if radial > 1e-12 else 0.0
    chi = observables.chi_state(theta, phi, s1, +1)
    achieved = observables.v_vector(chi)
    if np.abs(achieved - boundary_v).max() > RESULT_TOL:
        raise ConvergenceError(
            f"boundary state failed to reproduce {boundary_v.tolist()}: got {achieved.tolist()}"
        )
    return t


def random_search_max(
    objective: Objective,
    samples: int = 10000,
    seed: int = 0,
    restarts: int = 5,
    rounds: int = 12,
    shrink: float = 0.55,
) -> tuple[float, states.PureState]:
    """Brute-force check of max_expectation: best c.v over randomly sampled
    states only, no eigensolver involved.

    Annealed sampling: several independent restarts, each drawing rounds of
    random states around its running best with a shrinking spread.  Every
    evaluation is an expectation of an actual state, so the result is a
    certified lower bound on the true maximum.
    """
    samples = int(samples)
    if samples < restarts * rounds:
        raise ValidationError("sample budget too small for the restart schedule")
    dim = group_core.factorial_dim(objective.n)
    per = samples // (restarts * rounds)
    extra = samples - per * restarts * rounds
    batch = per + (1 if extra else 0)  # the largest round's state count
    if batch * dim * 16 > SEARCH_BATCH_MAX_BYTES:
        raise CapacityError(
            f"{samples} samples draw {batch} states of dimension {dim} per round, "
            f"over the {SEARCH_BATCH_MAX_BYTES}-byte batch budget"
        )
    rng = np.random.default_rng(seed)
    best_val, best_amp = -np.inf, None
    for _ in range(restarts):
        local_val, local_amp, sigma = -np.inf, None, 1.0
        for r in range(rounds):
            count = per + (1 if extra > 0 else 0)
            extra = max(0, extra - 1)
            z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
            if local_amp is not None:
                z = local_amp[None, :] + sigma * z
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            vals = observables.exchange_rows(z, objective.n) @ objective.weights
            i = int(np.argmax(vals))
            if vals[i] > local_val:
                local_val, local_amp = float(vals[i]), z[i]
            sigma *= shrink
        if local_val > best_val:
            best_val, best_amp = local_val, local_amp
    return best_val, states.PureState(objective.n, best_amp)
