"""Invariant suite runnable from the CLI; every check re-derives its own
expectations instead of trusting cached constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal, group_core, monogamy, npartite, observables, states
from .eigh import symmetric_spectrum

EXACT = 0.0
ALGEBRA_TOL = 1e-12
STATE_TOL = 1e-9

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


def _rot_axis_111(alpha: float) -> np.ndarray:
    k = np.ones(3) / np.sqrt(3.0)
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.cos(alpha) * np.eye(3) + np.sin(alpha) * K + (1 - np.cos(alpha)) * np.outer(k, k)


@_check
def exchange_involutions():
    """n = 2..5, every pair: fixed-point-free involution, symmetric matrix."""
    for n in range(2, 6):
        identity = np.arange(group_core.factorial_dim(n))
        for pair in group_core.canonical_pairs(n):
            op = group_core.exchange_operator(n, pair)
            assert np.array_equal(op.mapping[op.mapping], identity)
            assert not np.any(op.mapping == identity)
            assert op == op.inverse()
            M = op.matrix()
            assert np.array_equal(M, M.T)
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
    states.MixedState.from_mixture([0.2, 0.5, 0.3], parts)
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
    worst = 0.0
    for seed in range(200):
        psi = states.random_pure_state(3, 5000 + seed)
        v = observables.v_vector(psi)
        for w_vec, W_mat in zip(f.vectors(), f.matrices()):
            worst = max(worst, abs(observables.expectation(psi, W_mat) - w_vec @ v))
    assert worst <= 1e-10
    return f"<W_i> vs w_i.v residual <= {worst:.1e}"


@_check
def perfect_simulation_transitive():
    """Near-perfect bosonic (fermionic) AB and BC force the same for AC."""
    rng = np.random.default_rng(77)
    for base_name, sign in (("sym_plus", 1.0), ("antisym_minus", -1.0)):
        base = states.named_state(base_name).amplitudes
        for _ in range(25):
            noise = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            noise -= np.vdot(base, noise) * base
            noise /= np.linalg.norm(noise)
            eps = 1e-7
            psi = states.PureState(3, np.sqrt(1 - eps**2) * base + eps * noise)
            v = observables.v_vector(psi)
            assert abs(v[0] - sign) < ALGEBRA_TOL and abs(v[1] - sign) < ALGEBRA_TOL
            assert abs(v[2] - sign) <= STATE_TOL
    return "perturbed perfect pairs stay transitive within 1e-9"


@_check
def eigenvector_constraint_lemma():
    """<Pi> = 1 - eps iff ||Pi psi - psi||^2 = 2 eps, exactly."""
    op = group_core.exchange_operator(3, group_core.Pair(0, 1))
    rng = np.random.default_rng(88)
    worst = 0.0
    tol = 1e-6
    for _ in range(50):
        psi = states.PureState(3, states.random_amplitudes(3, 1, rng)[0])
        v = observables.expectation(psi, op)
        gap = np.linalg.norm(states.apply(op, psi).amplitudes - psi.amplitudes) ** 2
        worst = max(worst, abs(gap - 2.0 * (1.0 - v)))
        assert (v >= 1.0 - tol) == (gap <= 2.0 * tol + 1e-15)
    assert worst <= ALGEBRA_TOL
    return f"identity residual <= {worst:.1e}; equivalence held at tol 1e-6"


@_check
def membership_forms_agree():
    """Grid max of the theta family matches the sqrt form within 2e-5."""
    rng = np.random.default_rng(99)
    worst = 0.0
    candidates = [observables.v_vector(states.random_pure_state(3, 300 + k)) for k in range(100)]
    candidates += [rng.uniform(-1.0, 1.0, size=3) for _ in range(100)]
    for v in candidates:
        sup_estimate = 1.0 - monogamy.theta_family_margin(v, 720) / 3.0
        exact = 1.0 - monogamy.check_sqrt(v)
        assert sup_estimate <= exact + 1e-12
        worst = max(worst, exact - sup_estimate)
    assert worst <= 2e-5
    return f"720-point grid gap <= {worst:.2e}"


@_check
def sign_flip_symmetry():
    rng = np.random.default_rng(123)
    for _ in range(200):
        v = rng.uniform(-1.0, 1.0, size=3)
        assert monogamy.check_sqrt(v) == monogamy.check_sqrt(-v)
    return "check_sqrt(v) == check_sqrt(-v) exactly for 200 samples"


@_check
def rotational_symmetry():
    """Rotating boundary points about the (1,1,1) axis preserves margin 0."""
    rng = np.random.default_rng(321)
    worst = 0.0
    points = list(monogamy.surface_mesh(8, 5).v)
    points.append(observables.v_vector(states.named_state("eq5")))
    points.append(observables.v_vector(states.named_state("nontransitive_3_5")))
    for v in points:
        R = _rot_axis_111(rng.uniform(0.0, 2.0 * np.pi))
        worst = max(worst, abs(monogamy.check_sqrt(R @ v)))
    assert worst <= STATE_TOL
    return f"rotated boundary margins <= {worst:.1e}"


@_check
def double_cone_geometry():
    """|w1.v| plus the radial part equals 1 on the surface; apexes at
    +-(1,1,1)."""
    f = observables.w_frame()
    V = monogamy.surface_mesh(12, 7).v
    worst = 0.0
    for v in V:
        axial = abs(f.w1 @ v)
        radial = np.hypot(f.w2 @ v, f.w3 @ v)
        worst = max(worst, abs(axial + radial - 1.0))
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


def _subspace_samples(basis: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Unit amplitude rows drawn uniformly from the span of `basis`' columns."""
    rng = np.random.default_rng(seed)
    shape = (count, basis.shape[1])
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z @ basis.T


@_check
def bosonic_triangle_sampling():
    """10^5 states inside the bosonic-triangle subspace never push a cross
    pair below -1/3."""
    constraints = [
        extremal.Constraint(group_core.Pair.parse(p), +1) for p in ("AB", "AC", "BC")
    ]
    amps = _subspace_samples(extremal.joint_eigenspace_basis(4, constraints), 100000, 31337)
    cross = [group_core.Pair.parse(p) for p in ("AD", "BD", "CD")]
    lowest = observables.exchange_rows(amps, 4, cross).min()
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
    amps = _subspace_samples(extremal.joint_eigenspace_basis(4, constraints), 20000, 2718)
    lowest = observables.exchange_rows(amps, 4, graph.free).min()
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
