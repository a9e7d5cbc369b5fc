"""Invariant suite runnable from the CLI; every check re-derives its own
expectations instead of trusting cached constants."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import extremal, group_core, monogamy, npartite, observables, states
from .eigh import symmetric_spectrum
from .errors import InfeasibleError

ALGEBRA_TOL = 1e-12
STATE_TOL = 1e-9
# Sampled draws evaluated at once: few enough blocks that the per-block calls
# cost little, small enough that a block's pair products stay cache-sized
# (0.6 MiB at eigenspace dimension 4, 1.3 MiB at 6).
SAMPLE_BLOCK_ROWS = 8192

# Every invariant the suite asserts, in the order `statmon selftest` runs
# and prints them; tier-1 runs each one as a test under its own name.
CHECKS: list = []


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(fn):
    CHECKS.append(fn)
    return fn


def _rot_axis_111(alphas: np.ndarray) -> np.ndarray:
    """Rotations by each angle in `alphas` about the (1,1,1) axis, shape (N, 3, 3)."""
    k = np.ones(3) / np.sqrt(3.0)
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    cos, sin = (f(alphas)[:, None, None] for f in (np.cos, np.sin))
    return cos * np.eye(3) + sin * K + (1 - cos) * np.outer(k, k)


def _seeded_amplitudes(seeds) -> np.ndarray:
    """Rows of states.random_pure_state(3, seed) for each seed, unvalidated."""
    return np.concatenate([states.random_amplitudes(3, 1, np.random.default_rng(s)) for s in seeds])


def _dense_expectations(amps: np.ndarray, matrices) -> np.ndarray:
    """Re <psi|M|psi> for every amplitude row psi (axis 0) and matrix M (axis
    1), by dense matrix products: independent of the exchange_rows kernel."""
    return np.einsum("ri,kij,rj->rk", amps.conj(), np.asarray(matrices), amps).real


@_check
def exchange_involutions():
    """n = 2..5, every pair: fixed-point-free involution, symmetric matrix, its exchange table row."""
    for n in range(2, 6):
        identity = np.arange(group_core.factorial_dim(n))
        table = group_core.exchange_table(n)
        for pair, mapping, lo, hi in zip(group_core.canonical_pairs(n), table.mappings, table.lo, table.hi):
            op = group_core.exchange_operator(n, pair)
            assert np.array_equal(op.mapping[op.mapping], identity)
            assert not np.any(op.mapping == identity)
            assert op == op.inverse()
            M = op.matrix()
            assert np.array_equal(M, M.T)
            assert np.array_equal(mapping, op.mapping) and np.array_equal(mapping[lo], hi)
            assert np.all(lo < hi) and np.array_equal(np.sort(np.concatenate([lo, hi])), identity)
    return "checked n=2..5, all pairs, exact integer arithmetic"


@_check
def cyclic_identities():
    """The three pairwise products coincide and cube to the identity."""
    ab, bc, ac = (group_core.exchange_operator(3, p) for p in
                  (group_core.Pair(0, 1), group_core.Pair(1, 2), group_core.Pair(0, 2)))
    s = group_core.cyclic_operator()
    assert s == ab.compose(bc) == ac.compose(ab) == bc.compose(ac)
    assert np.array_equal(s.matrix(), ab.matrix() @ bc.matrix())
    assert s.compose(s).compose(s).is_identity()
    assert group_core.word_label(s.ordering.index_to_word(int(s.mapping[0]))) == "BCA"
    return "product identities and S^3 = 1 hold exactly"


@_check
def cyclic_spectrum():
    """Cycle type (3, 3) pins the spectrum to both primitive cube roots of
    unity and 1, each twice; a complex eigensolve confirms it independently."""
    s = group_core.cyclic_operator()
    assert s.cycle_type() == (3, 3)
    assert not s.is_identity()
    M = s.matrix()
    assert np.trace(M) == 0.0 and np.trace(M @ M) == 0.0
    roots = np.exp(2j * np.pi * np.arange(3) / 3)
    distance = np.abs(np.linalg.eigvals(M.astype(complex))[:, None] - roots)
    assert distance.min(axis=1).max() <= ALGEBRA_TOL
    assert np.bincount(distance.argmin(axis=1), minlength=3).tolist() == [2, 2, 2]
    return "cycle type (3,3): eigenvalues {1, w, conj(w)} with multiplicity 2"


@_check
def exchange_spectrum():
    """Each n = 3 exchange operator: eigenvalues +1 and -1, three each."""
    for pair in group_core.canonical_pairs(3):
        op = group_core.exchange_operator(3, pair)
        assert op.cycle_type() == (2, 2, 2)
        dec = symmetric_spectrum(op.matrix())
        assert np.abs(dec.eigenvalues - np.array([1, 1, 1, -1, -1, -1])).max() <= ALGEBRA_TOL
    return "cycle type (2,2,2) and solver spectra agree"


@_check
def symmetric_antisymmetric_eigenvectors():
    sym = states.named_state("sym_plus")
    anti = states.named_state("antisym_minus")
    worst = 0.0
    for pair in group_core.canonical_pairs(3):
        op = group_core.exchange_operator(3, pair)
        worst = max(worst, np.abs(states.apply(op, sym).amplitudes - sym.amplitudes).max())
        worst = max(worst, np.abs(states.apply(op, anti).amplitudes + anti.amplitudes).max())
    assert worst <= ALGEBRA_TOL
    return f"eigenvector residuals <= {worst:.1e}"


@_check
def named_state_normalization():
    names = [n for n in states.NAMED_STATES if n != "chi"]
    worst = 0.0
    for name in names:
        worst = max(worst, abs(states.named_state(name).norm() - 1.0))
    for theta, phi in ((0.0, 0.3), (2.1, 1.2), (5.9, np.pi / 2)):
        chi = states.named_state("chi", theta=theta, phi=phi, s1=+1, s2=-1)
        worst = max(worst, abs(chi.norm() - 1.0))
    assert worst <= 1e-12
    return f"norm deviations <= {worst:.1e}"


@_check
def mixture_invariants():
    sym = states.named_state("sym_plus")
    anti = states.named_state("antisym_minus")
    rho = states.MixedState.from_mixture([0.5, 0.5], [sym, anti])
    assert np.abs(observables.v_vector(rho)).max() <= ALGEBRA_TOL
    assert abs(np.trace(rho.matrix) - 1.0) <= ALGEBRA_TOL
    parts = [states.random_pure_state(3, seed) for seed in (11, 12, 13)]
    rho = states.MixedState.from_mixture([0.2, 0.5, 0.3], parts)
    # v's gather against the per-operator reference route
    by_operator = [observables.expectation(rho, op) for op in group_core.all_exchange_operators(3)]
    assert np.abs(observables.v_vector(rho) - by_operator).max() <= 1e-15
    return "convex mixtures satisfy Hermiticity, trace and positivity"


@_check
def w_algebra():
    f = observables.w_frame()
    residues = [
        np.abs(f.W1 @ f.W2 - f.W2 @ f.W1).max(),
        np.abs(f.W1 @ f.W3 - f.W3 @ f.W1).max(),
        np.abs(f.W1 @ f.W2).max(),
        np.abs(f.W1 @ f.W3).max(),
        np.abs(f.W2 @ f.W3 + f.W3 @ f.W2).max(),
        np.abs(f.W2 @ f.W2 - f.W3 @ f.W3).max(),
    ]
    W2sq = f.W2 @ f.W2
    for theta in (*np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False), 0.3, 1.7, 4.0):
        Wt = observables.w_theta(theta)
        residues.append(np.abs(Wt @ Wt - W2sq).max())
    worst = max(residues)
    assert worst <= ALGEBRA_TOL
    return f"commutator/anticommutator/square residues <= {worst:.1e}"


@_check
def w_spectra():
    f = observables.w_frame()
    dec = symmetric_spectrum(f.W1)
    assert np.abs(dec.eigenvalues - np.array([1, 0, 0, 0, 0, -1])).max() <= ALGEBRA_TOL
    sets = []
    for M in (f.W2, f.W3):
        vals = symmetric_spectrum(M).eigenvalues
        nearest = np.round(vals)
        assert np.abs(vals - nearest).max() <= STATE_TOL
        assert set(nearest.astype(int)) <= {-1, 0, 1}
        sets.append(tuple(int(x) for x in nearest))
    return f"W1 spectrum (1, 0x4, -1); W2/W3 multiplicities {sets[0]}, {sets[1]}"


@_check
def v_entries_bounded():
    rng = np.random.default_rng(101)
    V = observables.exchange_rows(states.random_amplitudes(3, 10000, rng), 3)
    worst = np.abs(V).max()
    assert worst <= 1.0 + STATE_TOL
    return f"10^4 random states: max |v| = {worst:.12f}"


@_check
def w_projection_consistency():
    f = observables.w_frame()
    amps = _seeded_amplitudes(range(5000, 5200))
    V = observables.exchange_rows(amps, 3)
    worst = np.abs(_dense_expectations(amps, f.matrices()) - V @ np.array(f.vectors()).T).max()
    assert worst <= 1e-10
    return f"<W_i> vs w_i.v residual <= {worst:.1e}"


@_check
def perfect_simulation_transitive():
    """Near-perfect bosonic (fermionic) AB and BC force the same for AC."""
    rng = np.random.default_rng(77)
    # per base state, 25 draws of six real then six imaginary parts
    draws = rng.standard_normal((2, 25, 2, 6))
    eps = 1e-7
    for base_name, sign, parts in zip(("sym_plus", "antisym_minus"), (1.0, -1.0), draws):
        base = states.named_state(base_name).amplitudes
        noise = parts[:, 0] + 1j * parts[:, 1]
        noise -= (noise @ base.conj())[:, None] * base
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        V = observables.exchange_rows(np.sqrt(1 - eps**2) * base + eps * noise, 3)
        assert (np.abs(V[:, :2] - sign) < ALGEBRA_TOL).all()
        assert (np.abs(V[:, 2] - sign) <= STATE_TOL).all()
    return "perturbed perfect pairs stay transitive within 1e-9"


@_check
def eigenvector_constraint_lemma():
    """<Pi> = 1 - eps iff ||Pi psi - psi||^2 = 2 eps, exactly."""
    op = group_core.exchange_operator(3, group_core.Pair(0, 1))
    rng = np.random.default_rng(88)
    tol = 1e-6
    # 50 states of six real then six imaginary parts each, normalized as
    # states.random_amplitudes does
    parts = rng.standard_normal((50, 2, 6))
    amps = parts[:, 0] + 1j * parts[:, 1]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    v = observables.exchange_rows(amps, 3, [op.pair])[:, 0]
    moved = np.empty_like(amps)
    moved[:, op.mapping] = amps  # states.apply on every row
    gap = np.linalg.norm(moved - amps, axis=1) ** 2
    worst = np.abs(gap - 2.0 * (1.0 - v)).max()
    assert np.array_equal(v >= 1.0 - tol, gap <= 2.0 * tol + 1e-15)
    assert worst <= ALGEBRA_TOL
    return f"identity residual <= {worst:.1e}; equivalence held at tol 1e-6"


def _grid_theta_margins(V: np.ndarray, grid: int) -> np.ndarray:
    """theta_family_margin of each row of V, by evaluating the family at
    every grid angle: the reference for its closed form."""
    thetas = np.arange(grid) * (2.0 * np.pi / grid)
    ab, bc, ac = V.T[:, :, None]
    radial = np.abs((2.0 * ab - bc - ac) * np.cos(thetas) + np.sqrt(3.0) * (bc - ac) * np.sin(thetas))
    return 3.0 - (np.abs(ab + bc + ac)[:, 0] + radial.max(axis=1))


@_check
def membership_forms_agree():
    """Grid max of the theta family matches the sqrt form within 2e-5, and
    its closed form matches the evaluated grid within 1e-12."""
    rng = np.random.default_rng(99)
    V = np.concatenate([
        observables.exchange_rows(_seeded_amplitudes(range(300, 400)), 3),
        rng.uniform(-1.0, 1.0, size=(100, 3)),
    ])
    sup_estimate = 1.0 - monogamy._theta_margins(V, 720) / 3.0
    exact = 1.0 - monogamy._margins_of_v(V)
    assert (sup_estimate <= exact + 1e-12).all()
    worst = (exact - sup_estimate).max()
    assert worst <= 2e-5
    closed_gap = max(
        np.abs(monogamy._theta_margins(V, grid) - _grid_theta_margins(V, grid)).max()
        for grid in (1, 2, 3, 90, 720, 721)
    )
    assert closed_gap <= 1e-12
    return f"720-point grid gap <= {worst:.2e}; closed form vs grids of 1-721 points <= {closed_gap:.1e}"


@_check
def sign_flip_symmetry():
    rng = np.random.default_rng(123)
    V = rng.uniform(-1.0, 1.0, size=(200, 3))
    # v and -v on adjacent rows, so that any blocking of the rows by the
    # matrix-vector products gives both the same sequence of operations
    margins = monogamy._margins_of_v(np.stack([V, -V], axis=1).reshape(-1, 3))
    assert np.array_equal(margins[0::2], margins[1::2])
    return "check_sqrt(v) == check_sqrt(-v) exactly for 200 samples"


@_check
def rotational_symmetry():
    """Rotating boundary points about the (1,1,1) axis preserves margin 0."""
    rng = np.random.default_rng(321)
    points = np.concatenate([
        monogamy.surface_mesh(8, 5).v,
        [observables.v_vector(states.named_state(name)) for name in ("eq5", "nontransitive_3_5")],
    ])
    rotated = _rot_axis_111(rng.uniform(0.0, 2.0 * np.pi, size=len(points))) @ points[:, :, None]
    worst = np.abs(monogamy._margins_of_v(rotated[:, :, 0])).max()
    assert worst <= STATE_TOL
    return f"rotated boundary margins <= {worst:.1e}"


@_check
def double_cone_geometry():
    """|w1.v| plus the radial part equals 1 on the surface; apexes at
    +-(1,1,1)."""
    V = monogamy.surface_mesh(12, 7).v
    # the margin is 1 - (|w1.v| + sqrt((w2.v)^2 + (w3.v)^2)), the cone equation's residual
    worst = np.abs(monogamy._margins_of_v(V)).max()
    for apex in (np.ones(3), -np.ones(3)):
        assert np.linalg.norm(V - apex, axis=1).min() <= 1e-12
    assert worst <= STATE_TOL
    return f"cone equation residual <= {worst:.1e}; both apexes present"


@_check
def region_audit_sample():
    report = monogamy.region_audit(20000, 4242, mixed_samples=2000)
    assert report.violations == 0
    assert report.min_margin >= -monogamy.MEMBERSHIP_TOL
    return f"22000 samples, min margin {report.min_margin:.6f}, zero violations"


@_check
def audit_kernel_cross_check():
    """Audit shards read v straight off the planar draw; the same streams,
    normalized and run through exchange_rows, give the same v for a partial
    pure shard and for mixtures."""
    worst = 0.0
    for mixed, count in ((False, 4099), (True, 64)):
        rng = np.random.default_rng([41, int(mixed), 2])
        V = observables.exchange_rows(states.random_amplitudes(3, count, rng), 3)
        if mixed:
            b = observables.exchange_rows(states.random_amplitudes(3, count, rng), 3)
            weight = rng.uniform(0.0, 1.0, size=count)[:, None]
            V = weight * V + (1.0 - weight) * b
        shard = monogamy._shard_v(41, mixed, 2, count)
        worst = max(worst, np.abs(shard.T - V).max())
    # |v| <= 1, so an absolute gap of 1e-15 is relative to v's scale
    assert worst <= 1e-15
    return f"4099 pure and 64 mixed draws: shard vs exchange_rows residual <= {worst:.1e}"


@_check
def boundary_states_on_surface():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(50):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.uniform(0.0, np.pi / 2.0)
        s1, s2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        point = monogamy.surface_state(theta, phi, s1, s2)
        worst = max(worst, abs(monogamy.check_sqrt(point.v)))
        assert abs(point.state.norm() - 1.0) <= ALGEBRA_TOL
    assert worst <= STATE_TOL
    return f"50 random boundary states, |margin| <= {worst:.1e}"


@_check
def extremal_oracle_consistency():
    """Sampled maxima never exceed the eigenvalue and improve with samples."""
    rng = np.random.default_rng(2468)
    for k in range(5):
        weights = rng.standard_normal(3)
        objective = extremal.Objective(3, weights)
        lam = extremal.max_expectation(objective).value
        amps = states.random_amplitudes(3, 2000, np.random.default_rng(9000 + k))
        values = observables.exchange_rows(amps, 3) @ weights
        small, large = values[:200].max(), values.max()
        assert large <= lam + 1e-9
        assert small <= large
    return "5 objectives: sampled max <= eigenvalue, nondecreasing in samples"


@_check
def support_function_identity():
    """The largest eigenvalue of sum c_XY Pi_XY equals the double cone's
    support function max(|g1|, |(g2, g3)|), g = W^-T c, and the irrep form
    max(|c1+c2+c3|, sqrt(c.c - c1c2 - c2c3 - c1c3)): the achievable set is
    exactly the region, so the bound is both sound and tight."""
    f = observables.w_frame()
    inverse_t = np.linalg.inv(np.array([f.w1, f.w2, f.w3])).T
    rng = np.random.default_rng(1618)
    worst = 0.0
    for _ in range(24):
        c = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 3.0)
        lam = extremal.max_expectation(extremal.Objective(3, c)).value
        g = inverse_t @ c
        cone = max(abs(g[0]), np.hypot(g[1], g[2]))
        irreps = max(abs(c.sum()), np.sqrt(c @ c - c[0] * c[1] - c[1] * c[2] - c[0] * c[2]))
        gap = max(abs(lam - cone), abs(lam - irreps)) / max(1.0, np.abs(c).sum())
        assert gap <= ALGEBRA_TOL, f"c = {c.tolist()}: eigenvalue {lam}, cone {cone}, irreps {irreps}"
        worst = max(worst, gap)
    return f"24 directions at scales 1e-3..1e3: relative gap <= {worst:.1e}"


@_check
def constrained_extremal_contracts():
    """v_AB = +1 never raises the maximum; the AB and AB+BC constraint
    eigenspaces have dimensions 3 and 1, with idempotent commuting projectors."""
    ab = [extremal.Constraint(group_core.Pair(0, 1), +1)]
    bc = [extremal.Constraint(group_core.Pair(1, 2), +1)]
    rng = np.random.default_rng(15)
    objectives = [extremal.Objective.from_pairs(3, {"BC": -1.0})]
    objectives += [extremal.Objective(3, rng.standard_normal(3)) for _ in range(5)]
    for objective in objectives:
        bound = extremal.constrained_extremal(ab, objective)
        assert bound.value <= extremal.max_expectation(objective).value + 1e-9
        assert monogamy.check_sqrt(bound.v) >= -monogamy.MEMBERSHIP_TOL
    for constraints, dim in ((ab, 3), (ab + bc, 1)):
        basis = extremal.joint_eigenspace_basis(3, constraints)
        assert basis.shape == (6, dim)
        P = extremal.constraint_projector(3, constraints)
        assert np.abs(P @ P - P).max() <= 1e-10
        for c in constraints:
            op = group_core.exchange_operator(3, c.pair).matrix()
            assert np.abs(P @ op - op @ P).max() <= 1e-10
            assert np.abs(op @ basis - c.value * basis).max() <= 1e-10
    return "constrained <= unconstrained; projector idempotent and commuting"


def _dense_kernel_projectors(n: int, signs: np.ndarray) -> list:
    """For each row of constraint signs (0 where a pair is unconstrained), the
    projector onto the kernel of sum_i (I - s_i Pi_i)/2, or None where it is
    empty: the dense build and eigensolve that the orbit basis replaces."""
    dim = group_core.factorial_dim(n)
    counts = np.abs(signs).sum(axis=1)[:, None, None]
    values, vectors = np.linalg.eigh((counts * np.eye(dim) - group_core.exchange_matrix(n, signs)) / 2.0)
    kernels = [V[:, np.abs(w) <= 1e-10] for w, V in zip(values, vectors)]  # PSD: kernel is w ~ 0
    return [K @ K.T if K.shape[1] else None for K in kernels]


@_check
def orbit_basis_matches_dense_kernel():
    """joint_eigenspace_basis against the dense kernel of sum_i (I - s_i Pi_i)/2
    for all 27 sign patterns at n = 3 and 24 seeded ones at n = 4: the same
    verdicts and projectors, and entries exactly +-1/sqrt(orbit size) with
    +1 on each orbit's lowest word, columns in the order of those words."""
    patterns = {
        3: np.array(list(itertools.product((0, 1, -1), repeat=3))),
        4: np.random.default_rng(2202).choice([0, 0, 1, -1], size=(24, 6)),  # half unconstrained
    }
    worst, feasible = 0.0, 0
    for n, signs in patterns.items():
        for row, reference in zip(signs, _dense_kernel_projectors(n, signs)):
            constraints = [extremal.Constraint(p, int(s)) for p, s in zip(group_core.canonical_pairs(n), row) if s]
            try:
                basis = extremal.joint_eigenspace_basis(n, constraints)
            except InfeasibleError:
                assert reference is None, f"n = {n}, signs {row.tolist()}: the dense kernel is not empty"
                continue
            assert reference is not None, f"n = {n}, signs {row.tolist()}: the dense kernel is empty"
            support = basis != 0.0
            sizes, lowest = support.sum(axis=0), support.argmax(axis=0)
            assert np.array_equal(support.sum(axis=1), np.ones(len(basis))) and np.all(np.diff(lowest) > 0)
            assert np.array_equal(np.abs(basis), support / np.sqrt(sizes))
            assert np.array_equal(basis[lowest, np.arange(len(sizes))], 1.0 / np.sqrt(sizes))
            worst = max(worst, np.abs(basis @ basis.T - reference).max())
            feasible += 1
    assert worst <= ALGEBRA_TOL
    return f"51 sign patterns at n = 3, 4 ({feasible} feasible): same verdicts, projector gap <= {worst:.1e}"


@_check
def four_box_cross_agreement():
    """The constrained route reproduces the spectral route for the two-boson
    four-box scenario."""
    constraints = [
        extremal.Constraint(group_core.Pair.parse("AB"), +1),
        extremal.Constraint(group_core.Pair.parse("CD"), +1),
    ]
    objective = extremal.Objective.from_pairs(
        4, {"AC": -1.0, "AD": -1.0, "BC": -1.0, "BD": -1.0}
    )
    result = extremal.constrained_extremal(constraints, objective)
    assert abs(result.value - 2.0) <= STATE_TOL
    graph = npartite.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "CD": 1}, "free": ["AC", "AD", "BC", "BD"]}
    )
    spectral = npartite.spectral_bound(graph)
    assert abs(spectral.lambda_max - (2.0 + result.value)) <= STATE_TOL
    return "constrained value 2 consistent with spectral lambda 4"


def _lowest_ratio(x: np.ndarray, y: np.ndarray, forms) -> float:
    """Lowest (x.G x + y.G y) / (x.x + y.y) over the rows of `x` and `y`
    and the real symmetric d x d `forms` G."""
    dim = x.shape[1]
    # x.G x is the sum over i <= j of x_i x_j (G_ij + G_ji) / (1 + [i = j]);
    # the identity's form, last, gives each row's squared norm
    i, j = np.triu_indices(dim)
    forms = [*forms, np.eye(dim)]
    coefficients = np.array([G[i, j] + G[j, i] for G in forms]).T * np.where(i == j, 0.5, 1.0)[:, None]
    products = x[:, i] * x[:, j]
    y_products = y[:, i]
    y_products *= y[:, j]
    products += y_products
    quad = products @ coefficients
    return float((quad[:, :-1] / quad[:, -1:]).min())


def _sampled_minimum(n: int, constraints, pairs, count: int, seed: int) -> float:
    """Lowest <Pi_XY> over `pairs` among `count` unit states drawn uniformly
    from the joint eigenspace of `constraints`.

    A state is B z for the eigenspace basis B and a complex Gaussian z =
    x + iy, so <Pi_XY> = (x.G x + y.G y) / (x.x + y.y) with the d x d form
    G = B^T (Pi_XY B): no draw is normalized or expanded to n! amplitudes.
    Every real part is drawn first; the imaginary parts are then drawn and
    evaluated one block of SAMPLE_BLOCK_ROWS at a time.
    """
    basis = extremal.joint_eigenspace_basis(n, constraints)
    table = group_core.exchange_table(n)
    forms = [basis.T @ basis[table.mappings[table.row[p]]] for p in pairs]
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((count, basis.shape[1]))
    lowest = np.inf
    for start in range(0, count, SAMPLE_BLOCK_ROWS):
        x = re[start:start + SAMPLE_BLOCK_ROWS]
        lowest = min(lowest, _lowest_ratio(x, rng.standard_normal(x.shape), forms))
    return lowest


@_check
def bosonic_triangle_sampling():
    """10^5 states inside the bosonic-triangle subspace never push a cross
    pair below -1/3."""
    constraints = [
        extremal.Constraint(group_core.Pair.parse(p), +1) for p in ("AB", "AC", "BC")
    ]
    cross = [group_core.Pair.parse(p) for p in ("AD", "BD", "CD")]
    lowest = _sampled_minimum(4, constraints, cross, 100000, 31337)
    assert lowest >= -1.0 / 3.0 - STATE_TOL
    return f"min cross expectation {lowest:.9f} >= -1/3 - 1e-9"


@_check
def scenario_bounds_respected():
    """Random states satisfying the fixed edges never beat the reported
    bound on the free edges."""
    graph = npartite.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "CD": 1}, "free": ["AC", "AD", "BC", "BD"]}
    )
    report = npartite.scenario_report(graph)
    constraints = [extremal.Constraint(p, v) for p, v in graph.fixed]
    lowest = _sampled_minimum(4, constraints, graph.free, 20000, 2718)
    assert lowest >= -min(report.triangle_bound, report.spectral_bound) - STATE_TOL
    return f"sampled free-edge minimum {lowest:.9f} respects bound"


def run_selftest() -> list[CheckResult]:
    results = []
    for fn in CHECKS:
        name = fn.__name__
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail or ""))
        except AssertionError as exc:
            results.append(CheckResult(name, False, f"assertion failed: {exc}"))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the table
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
