"""Extremal exchange expectations via eigenvalue maximization.

Unconstrained problems reduce to the top eigenvalue of the real symmetric
objective matrix.  Perfect-statistics constraints (v_XY = +-1) are
eigenspace conditions, so the constrained problem is the same eigenvalue
problem restricted to the joint constraint eigenspace, built in its orbit basis.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from . import group_core, observables, region, states
from .eigh import symmetric_spectrum
from .errors import CapacityError, ConvergenceError, InfeasibleError, ValidationError, as_count, as_seed
from .errors import as_array, as_instance, as_items, as_real

RESULT_TOL = 1e-9
# Bounds every eigenvalue and every c.v of an objective, so each stays finite.
WEIGHT_SUM_MAX = 1e300
ORBIT_DIM_MAX = 720  # k x k restricted solves: 6! keeps each one within about a second
SEARCH_BATCH_MAX_BYTES = 2**26  # complex amplitudes drawn per round; the draw and its normalization peak at 2x
SEARCH_SHRINK = 0.55  # random_search_max narrows its spread by this factor each round
SEARCH_RESTARTS = 5  # independent annealing runs in random_search_max
SEARCH_ROUNDS = 12  # sampling rounds per restart


class Objective(collections.namedtuple("Objective", "n weights")):
    """Linear objective sum of c_XY * Pi_XY over canonical pairs: the box count
    n and a read-only array of one weight c_XY per canonical pair."""

    __slots__ = ()

    def __new__(cls, n: int, weights):
        n = group_core.validate_box_count(n)
        w = as_array(weights, "objective weights", finite=False)
        pairs = group_core.canonical_pairs(n)
        if w.shape[0] != len(pairs):
            raise ValidationError(f"expected {len(pairs)} weights for n = {n}, got {w.shape[0]}")
        nonfinite = np.flatnonzero(~np.isfinite(w))
        if nonfinite.size:
            i = int(nonfinite[0])
            raise ValidationError(f"objective weight for {pairs[i]} must be finite, got {w[i]}")
        if not np.any(w != 0.0):
            raise ValidationError("objective needs at least one nonzero weight")
        with np.errstate(over="ignore"):
            total = np.abs(w).sum()
        if total > WEIGHT_SUM_MAX:
            raise ValidationError(
                f"objective weights must have absolute sum <= {WEIGHT_SUM_MAX:g}, got {total:g}"
            )
        w.setflags(write=False)
        return super().__new__(cls, n, w)

    @classmethod
    def _make(cls, values) -> "Objective":
        return cls(*values)  # _replace builds its record here, so it is checked too

    @classmethod
    def from_pairs(cls, n: int, coefficients: dict) -> "Objective":
        pairs = group_core.canonical_pairs(n)
        lookup = {}
        for key, value in as_instance(coefficients, dict, "objective coefficients").items():
            pair = key if isinstance(key, group_core.Pair) else group_core.Pair.parse(str(key))
            if pair in lookup:
                raise ValidationError(f"duplicate objective pair {pair}")
            lookup[pair] = as_real(value, f"objective weight for {pair}")
        unknown = set(lookup) - set(pairs)
        if unknown:
            raise ValidationError(f"pairs {sorted(map(str, unknown))} invalid for n = {n}")
        return cls(n, np.array([lookup.get(p, 0.0) for p in pairs]))

    def matrix(self) -> np.ndarray:
        return group_core.exchange_matrix(self.n, self.weights)


class Constraint(collections.namedtuple("Constraint", "pair value")):
    """Perfect-statistics condition v_XY = +1 or -1 on one pair: the tuple
    (Pair, int value)."""

    __slots__ = ()

    def __new__(cls, pair: group_core.Pair, value: int):
        as_instance(pair, group_core.Pair, "constraint pair")
        real = as_real(value, f"constraint on {pair}")
        if real not in (1.0, -1.0):
            raise ValidationError(
                f"constraint on {pair} must be exactly +1 or -1, got {value!r}; "
                "intermediate targets are not eigenspace conditions"
            )
        return super().__new__(cls, pair, int(real))

    @classmethod
    def _make(cls, values) -> "Constraint":
        return cls(*values)  # _replace builds its record here, so it is checked too


class ExtremalResult(collections.namedtuple("ExtremalResult", "value state degeneracy v")):
    """Optimal value (float) with an attaining PureState, the top eigenvalue's
    degeneracy (int) and the state's v-vector (array)."""

    __slots__ = ()

    def to_jsonable(self) -> dict:
        return {
            "value": float(self.value),
            "degeneracy": int(self.degeneracy),
            "state": states.state_to_jsonable(self.state),
            "v": [float(x) for x in self.v],
        }


def max_expectation(objective: Objective) -> ExtremalResult:
    """Largest achievable expectation of the objective over all states: the
    constrained problem with no constraints."""
    return constrained_extremal((), objective)


class OrbitSpace(collections.namedtuple("OrbitSpace", "n constraints column entry k")):
    """The joint constraint eigenspace (psi[m(i)] = s psi[i] for each constrained exchange m, sign s) in its
    basis of word orbits under the constrained swaps: each word's orbit `column`, orbits in the order of their
    lowest words, its `entry` sign/sqrt(orbit size), +1 on the lowest word, and the dimension k.  `n` and `k`
    are ints, `constraints` a tuple of Constraint, `column` and `entry` read-only arrays of n! entries."""

    __slots__ = ()

    def matrix(self, weights) -> np.ndarray:
        """B^T (sum_p c_p Pi_p) B for one unchecked weight c_p per canonical pair, by one scatter:
        each exchange m_p and word w add c_p entry[w] entry[m_p(w)] at (column[w], column[m_p(w)]).
        With no constraints B is the identity and each entry holds one weight, as in exchange_matrix."""
        m, column, k = group_core.exchange_table(self.n).mappings, self.column, self.k
        products = np.asarray(weights, dtype=np.float64)[:, None] * (self.entry * self.entry[m])
        return np.bincount((column * k + column[m]).ravel(), products.ravel(), minlength=k * k).reshape(k, k)


def orbit_space(n: int, constraints) -> OrbitSpace:
    """The OrbitSpace of `constraints` at n boxes, from the exchange table with no eigensolve: InfeasibleError
    if the signs disagree; CapacityError for k over ORBIT_DIM_MAX, before any k x k or n! x k array exists."""
    n = group_core.validate_box_count(n)
    constraints = tuple(as_items(constraints, Constraint, "constraints"))
    for c in constraints:
        if c.pair.y >= n:
            raise ValidationError(f"constraint pair {c.pair} invalid for n = {n}")
    table = group_core.exchange_table(n)
    mappings = [(table.mappings[table.row[c.pair]], c.value) for c in constraints]
    low, sign = np.arange(table.mappings.shape[1]), np.ones(table.mappings.shape[1])
    drops = 1
    while drops:  # spread each word's lowest orbit-mate, and its sign relative to it
        drops = 0
        for m, s in mappings:
            drop = low[m] < low
            low[drop], sign[drop] = low[m][drop], s * sign[m][drop]
            drops += np.count_nonzero(drop)
    if any(np.any(sign[m] != s * sign) for m, s in mappings):
        raise InfeasibleError(
            "constraints have an empty joint eigenspace: "
            + ", ".join(f"v_{c.pair}={c.value:+d}" for c in constraints)
        )
    _, column, size = np.unique(low, return_inverse=True, return_counts=True)
    if size.shape[0] > ORBIT_DIM_MAX:
        raise CapacityError(f"the constrained space of n = {n} has dimension {size.shape[0]}, over {ORBIT_DIM_MAX}")
    entry = sign / np.sqrt(size[column])
    for arr in (column, entry):
        arr.setflags(write=False)
    return OrbitSpace(n, constraints, column, entry, size.shape[0])


def joint_eigenspace_basis(n: int, constraints) -> np.ndarray:
    """Orthonormal basis of the joint constraint eigenspace: one column per orbit of its OrbitSpace."""
    space = orbit_space(n, constraints)
    return np.eye(space.k)[space.column] * space.entry[:, None]


def constraint_projector(n: int, constraints) -> np.ndarray:
    """Orthogonal projector onto the joint constraint eigenspace: B B^T for its orbit basis B,
    so entry[w] entry[w'] for words w, w' of one orbit and 0 otherwise."""
    space = orbit_space(n, constraints)  # an empty or too large space is refused first
    group_core.check_dense_capacity(n, "a constraint projector")
    return np.where(space.column[:, None] == space.column, np.outer(space.entry, space.entry), 0.0)


def constrained_extremal(constraints, objective: Objective) -> ExtremalResult:
    """Maximize the objective over states satisfying every constraint.

    Returns the top eigenvalue of the objective restricted to the joint
    constraint eigenspace; the state is the canonical top eigenvector
    mapped back to the full space and is verified against every constraint.
    """
    objective = as_instance(objective, Objective, "objective")
    space = orbit_space(objective.n, constraints)
    # solved in units of max |c_XY|, so that symmetric_spectrum's tolerances,
    # absolute below unit scale, stay relative to the weights
    unit = float(np.abs(objective.weights).max())
    weights = objective.weights / unit
    restricted = space.matrix(weights)
    # cluster at the full objective's scale, 1 in these units: the restriction
    # can be pure roundoff, as for AB - CD on the v_AB = v_CD = +1 eigenspace
    dec = symmetric_spectrum(restricted)._replace(scale=1.0)
    top = float(dec.eigenvalues[0])
    state = states.normalize((dec.top_vector[space.column] * space.entry).astype(np.complex128), objective.n)
    v = observables.v_vector(state)
    for c in space.constraints:
        got = v[group_core.exchange_table(objective.n).row[c.pair]]
        if abs(got - c.value) > RESULT_TOL:
            raise ConvergenceError(f"solution violates v_{c.pair} = {c.value:+d}: got {got}")
    # <psi|M|psi> = c.v; its roundoff grows with the entries of M, which sum |c_XY| bounds
    achieved = v @ weights
    if abs(achieved - top) > RESULT_TOL * np.abs(weights).sum():
        raise ConvergenceError(f"eigenstate misses its eigenvalue by {(achieved - top) * unit:.2e}")
    return ExtremalResult(value=top * unit, state=state, degeneracy=dec.degeneracy(top), v=v)


def symmetric_ray_extreme(direction) -> float:
    """Largest t such that t * direction still satisfies the membership test.

    Closed form from the sqrt relation: t = 1 / region.cone_norm of d's
    W-frame coordinates, taken on d / max|d| so that tiny or huge d neither
    underflow nor overflow.  Cross-validated by building the boundary state
    at that point and comparing its measured v-vector.
    """
    d = as_array(direction, "direction")
    if d.shape != (3,):
        raise ValidationError(f"direction must have 3 components, got {d.shape}")
    scale = np.abs(d).max()
    if scale == 0.0:
        raise ValidationError("direction must be a nonzero vector")
    unit = d / scale
    unit_t = 1.0 / region.cone_norm(*region.frame_of_v(*unit.tolist()))
    t = unit_t / float(scale)  # Python floats: an overflow gives inf, not a warning
    if not math.isfinite(t):
        raise ValidationError(f"the boundary lies beyond float range along {d.tolist()}")
    boundary_v = unit_t * unit

    axial, u2, u3 = region.frame_of_v(*boundary_v.tolist())
    phi = math.acos(math.sqrt(min(1.0, abs(axial))))
    s1 = +1 if axial >= 0.0 else -1
    theta = math.atan2(u3, u2) % (2.0 * math.pi) if math.hypot(u2, u3) > 1e-12 else 0.0
    # a tiny negative angle rounds up to 2 pi, which chi_state refuses: it is angle 0
    chi = observables.chi_state(theta if theta < 2.0 * math.pi else 0.0, phi, s1, +1)
    achieved = observables.v_vector(chi)
    if np.abs(achieved - boundary_v).max() > RESULT_TOL:
        raise ConvergenceError(
            f"boundary state failed to reproduce {boundary_v.tolist()}: got {achieved.tolist()}"
        )
    return t


def random_search_max(
    objective: Objective, samples: int = 10000, seed: int = 0
) -> tuple[float, states.PureState]:
    """Brute-force check of max_expectation: best c.v over randomly sampled
    states only, no eigensolver involved.

    Annealed sampling: several independent restarts, each drawing rounds of
    random states around its running best with a shrinking spread.  Every
    evaluation is an expectation of an actual state, so the result is a
    certified lower bound on the true maximum.
    """
    objective = as_instance(objective, Objective, "objective")
    samples, seed = as_count(samples, "samples"), as_seed(seed)
    if samples < SEARCH_RESTARTS * SEARCH_ROUNDS:
        raise ValidationError("sample budget too small for the restart schedule")
    dim = group_core.factorial_dim(objective.n)
    per = samples // (SEARCH_RESTARTS * SEARCH_ROUNDS)
    extra = samples - per * SEARCH_RESTARTS * SEARCH_ROUNDS
    batch = per + (1 if extra else 0)  # the largest round's state count
    if batch * dim * 16 > SEARCH_BATCH_MAX_BYTES:
        raise CapacityError(
            f"{samples} samples draw {batch} states of dimension {dim} per round, "
            f"over the {SEARCH_BATCH_MAX_BYTES}-byte batch budget"
        )
    rng = np.random.default_rng(seed)
    best_val, best_amp = -np.inf, None
    for _ in range(SEARCH_RESTARTS):
        local_val, local_amp, sigma = -np.inf, None, 1.0
        for r in range(SEARCH_ROUNDS):
            count = per + (1 if extra > 0 else 0)
            extra = max(0, extra - 1)
            z = states.gaussian_amplitudes(objective.n, count, rng)
            if local_amp is not None:
                z *= sigma
                z += local_amp
            states.unit_rows(z)
            vals = observables.exchange_rows(z, objective.n) @ objective.weights
            i = int(np.argmax(vals))
            if vals[i] > local_val:
                local_val, local_amp = float(vals[i]), z[i].copy()
            del z  # the next round's draw must not sit beside this batch
            sigma *= SEARCH_SHRINK
        if local_val > best_val:
            best_val, best_amp = local_val, local_amp
    return best_val, states.PureState(objective.n, best_amp)
