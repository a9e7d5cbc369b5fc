import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from statmon import extremal as ex
from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import observables as ob
from statmon import selftest
from statmon.errors import CapacityError, InfeasibleError, ValidationError

P = gc.Pair.parse


def test_objective_validation():
    with pytest.raises(ValidationError):
        ex.Objective(3, [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        ex.Objective(3, [1.0, 2.0])
    with pytest.raises(ValidationError):
        ex.Objective.from_pairs(3, {"AD": 1.0})
    obj = ex.Objective.from_pairs(3, {"AC": -1.0})
    assert np.array_equal(obj.weights, [0.0, 0.0, -1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_objective_names_the_nonfinite_weight(bad):
    with pytest.raises(ValidationError, match=f"weight for CD must be finite, got {bad}"):
        ex.Objective.from_pairs(4, {"AB": 1.0, "CD": bad})


@pytest.mark.parametrize("bad", ["x", None, [1.0]])
def test_objective_refuses_a_non_numeric_weight(bad):
    with pytest.raises(ValidationError, match="weight for AB must be a number"):
        ex.Objective.from_pairs(3, {"AB": bad})


def test_constraint_requires_unit_values():
    with pytest.raises(ValidationError):
        ex.Constraint(P("AB"), 0)
    with pytest.raises(ValidationError):
        ex.Constraint(P("AB"), 0.3)


def test_max_expectation_symmetric_objective():
    result = ex.max_expectation(ex.Objective.from_pairs(3, {"AB": 1, "BC": 1, "AC": 1}))
    assert abs(result.value - 3.0) < 1e-9
    assert result.degeneracy == 1
    assert np.abs(result.v - 1.0).max() < 1e-9
    assert abs(abs(np.vdot(
        result.state.amplitudes, np.ones(6) / np.sqrt(6.0))) - 1.0) < 1e-9


def test_max_expectation_matches_brute_force_eigensolve():
    rng = np.random.default_rng(3)
    for _ in range(10):
        weights = rng.standard_normal(3)
        obj = ex.Objective(3, weights)
        result = ex.max_expectation(obj)
        reference = np.linalg.eigvalsh(obj.matrix())[-1]
        assert abs(result.value - reference) < 1e-9
        assert abs(weights @ result.v - result.value) < 1e-9


def test_four_box_objectives():
    two_boson = ex.Objective.from_pairs(
        4, {"AB": 1, "CD": 1, "AC": -1, "AD": -1, "BC": -1, "BD": -1}
    )
    result = ex.max_expectation(two_boson)
    assert abs(result.value - np.linalg.eigvalsh(two_boson.matrix())[-1]) < 1e-9
    assert abs(result.value - 4.0) < 1e-9

    triangle = ex.Objective.from_pairs(
        4, {"AB": 1, "AC": 1, "BC": 1, "AD": -1, "BD": -1, "CD": -1}
    )
    result = ex.max_expectation(triangle)
    assert abs(result.value - 4.0) < 1e-9


def test_constrained_boson_forces_fermion_limit():
    result = ex.constrained_extremal(
        [ex.Constraint(P("AB"), +1)], ex.Objective.from_pairs(3, {"BC": -1.0})
    )
    assert abs(result.value - 0.5) < 1e-9
    assert np.abs(result.v - np.array([1.0, -0.5, -0.5])).max() < 1e-9


def test_constrained_fermion_forces_boson_limit():
    result = ex.constrained_extremal(
        [ex.Constraint(P("AB"), -1)], ex.Objective.from_pairs(3, {"BC": +1.0})
    )
    assert abs(result.value - 0.5) < 1e-9
    assert np.abs(result.v - np.array([-1.0, 0.5, 0.5])).max() < 1e-9


def test_two_boson_constraints_force_transitivity():
    result = ex.constrained_extremal(
        [ex.Constraint(P("AB"), +1), ex.Constraint(P("BC"), +1)],
        ex.Objective.from_pairs(3, {"AC": -1.0}),
    )
    assert abs(result.value + 1.0) < 1e-9
    assert np.abs(result.v - 1.0).max() < 1e-9


# These run the selftest check that asserts each contract.
def test_constrained_never_beats_unconstrained():
    selftest.constrained_extremal_contracts()


def test_joint_eigenspace_and_projector():
    selftest.constrained_extremal_contracts()


def test_extremal_states_are_physical():
    rng = np.random.default_rng(16)
    for _ in range(5):
        obj = ex.Objective(3, rng.standard_normal(3))
        result = ex.max_expectation(obj)
        assert mg.check_sqrt(result.v) >= -1e-9


def test_infeasible_constraints():
    with pytest.raises(InfeasibleError):
        ex.constrained_extremal(
            [ex.Constraint(P("AB"), +1), ex.Constraint(P("AB"), -1)],
            ex.Objective.from_pairs(3, {"BC": 1.0}),
        )


def test_symmetric_ray_extreme():
    assert abs(ex.symmetric_ray_extreme([1.0, 1.0, -1.0]) - 0.6) < 1e-9
    assert abs(ex.symmetric_ray_extreme([-1.0, -1.0, 1.0]) - 0.6) < 1e-9
    assert abs(ex.symmetric_ray_extreme([1.0, 1.0, 1.0]) - 1.0) < 1e-9
    # scale-covariance: doubling the direction halves the multiplier
    assert abs(ex.symmetric_ray_extreme([2.0, 2.0, -2.0]) - 0.3) < 1e-9
    with pytest.raises(ValidationError):
        ex.symmetric_ray_extreme([0.0, 0.0, 0.0])


@pytest.mark.parametrize("s", [1e-200, 1e200])
def test_symmetric_ray_extreme_scales_as_one_over_s(s):
    # |d|^2 underflows at 1e-200 and overflows at 1e200; the closed form must not
    d = np.array([0.3, -0.7, 0.2])
    with np.errstate(all="raise"):
        assert abs(ex.symmetric_ray_extreme(d * s) * s / ex.symmetric_ray_extreme(d) - 1.0) <= 1e-14


def test_symmetric_ray_extreme_refuses_a_multiplier_beyond_float_range():
    with pytest.raises(ValidationError, match="beyond float range"):
        ex.symmetric_ray_extreme([1e-310, 0.0, 0.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    raw=hst.lists(hst.floats(-1.0, 1.0), min_size=3, max_size=3),
    exponent=hst.floats(-200.0, 200.0),
)
def test_symmetric_ray_extreme_lands_on_the_boundary(raw, exponent):
    d = np.array(raw)
    assume(np.abs(d).max() > 0.0)
    d /= np.abs(d).max()
    d *= 10.0**exponent
    assert abs(mg.check_sqrt(ex.symmetric_ray_extreme(d) * d)) <= 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ex.Objective.from_pairs(3, {"AB": 1, "BA": 2}), "duplicate objective pair AB"),
        (
            lambda: ex.constrained_extremal([ex.Constraint(P("AD"), +1)], ex.Objective.from_pairs(3, {"AB": 1})),
            "constraint pair AD invalid for n = 3",
        ),
        (lambda: ex.symmetric_ray_extreme([1.0, 2.0]), r"direction must have 3 components, got \(2,\)"),
        (
            lambda: ex.random_search_max(
                ex.Objective.from_pairs(3, {"AB": 1}), samples=ex.SEARCH_RESTARTS * ex.SEARCH_ROUNDS - 1
            ),
            "sample budget too small for the restart schedule",
        ),
    ],
    ids=["duplicate-pair-under-two-names", "constraint-beyond-n", "two-vector-ray", "too-few-samples"],
)
def test_extremal_refusals(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize("scale", [1e-12, 1e-100, 1e-320])
@pytest.mark.parametrize(
    "n, fixed, coefficients",
    [
        (3, {"AB": +1}, {"BC": -1.0}),
        (3, {}, {"AB": 1.0, "BC": -1.0}),
        (4, {"AB": +1, "CD": +1}, {"AC": -1.0, "BD": 1.0}),
    ],
    ids=["AB=+1 max -BC", "max AB-BC", "AB=CD=+1 max BD-AC"],
)
def test_small_weights_attain_the_unit_extremum_scaled(n, fixed, coefficients, scale):
    constraints = [ex.Constraint(P(p), s) for p, s in fixed.items()]
    unit = ex.constrained_extremal(constraints, ex.Objective.from_pairs(n, coefficients))
    small = ex.constrained_extremal(
        constraints, ex.Objective.from_pairs(n, {p: c * scale for p, c in coefficients.items()})
    )
    # the state attains the value: the same v as at unit weights, not a basis word
    assert np.abs(small.v - unit.v).max() <= 1e-9
    assert small.degeneracy == unit.degeneracy
    assert abs(small.value - unit.value * scale) <= 1e-9 * abs(unit.value) * scale


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"samples": 20000.7}, "samples must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": -1}, "seed must be non-negative"),
    ],
    ids=["samples-float", "seed-float", "seed-negative"],
)
def test_random_search_refuses_bad_samples_and_seed(kwargs, message):
    # int() truncated 20000.7 to 20000 states; numpy raised bare TypeError/ValueError for the seeds
    obj = ex.Objective.from_pairs(3, {"AB": 1, "BC": 1, "AC": 1})
    with pytest.raises(ValidationError, match=message):
        ex.random_search_max(obj, **{"samples": 600, "seed": 5, **kwargs})


def test_random_search_is_a_lower_bound_that_improves():
    obj = ex.Objective.from_pairs(3, {"AB": 1, "BC": 1, "AC": 1})
    lam = ex.max_expectation(obj).value
    coarse, _ = ex.random_search_max(obj, 600, seed=5)
    fine, _ = ex.random_search_max(obj, 10000, seed=5)
    assert coarse <= lam + 1e-9
    assert fine <= lam + 1e-9
    assert fine >= coarse - 1e-12
    assert lam - fine < 0.05


def test_dense_eigensolve_capacity():
    with pytest.raises(CapacityError) as info:
        ex.max_expectation(ex.Objective.from_pairs(6, {"AB": 1.0}))
    assert "n <= 5" in str(info.value)


def test_joint_eigenspace_capacity_gate():
    # a conflicting pair allocates nothing, so only the gate can raise first
    conflict = [ex.Constraint(P("AB"), +1), ex.Constraint(P("AB"), -1)]
    for n in (6, 7):
        with pytest.raises(CapacityError):
            ex.joint_eigenspace_basis(n, conflict)
        with pytest.raises(CapacityError):
            ex.constraint_projector(n, conflict)
    with pytest.raises(InfeasibleError):
        ex.joint_eigenspace_basis(5, conflict)


def test_constrained_extremal_reproducible():
    constraints = [ex.Constraint(P("AB"), +1), ex.Constraint(P("CD"), -1)]
    objective = ex.Objective.from_pairs(5, {"AC": 0.7, "BE": -0.4, "DE": 1.1, "BC": 0.3})
    first = ex.constrained_extremal(constraints, objective).to_jsonable()
    second = ex.constrained_extremal(constraints, objective).to_jsonable()
    assert repr(first) == repr(second)


def test_result_json_schema():
    result = ex.max_expectation(ex.Objective.from_pairs(3, {"AB": 1.0}))
    payload = result.to_jsonable()
    assert set(payload) == {"value", "degeneracy", "state", "v"}
    assert payload["state"]["ordering"] == "paper3"


def test_random_search_batch_budget_refuses_before_drawing():
    # 2**50 samples make a round of about 2**44 states: without the gate
    # numpy refuses the petabyte-sized draw outright with MemoryError
    obj = ex.Objective.from_pairs(3, {"AB": 1.0})
    with pytest.raises(CapacityError):
        ex.random_search_max(obj, 2**50)


def test_random_search_round_peaks_at_twice_its_batch(monkeypatch):
    # a round holds the complex batch and, while drawing it, the real draw
    # beside it; neither the last round's batch nor a norm temporary may join
    monkeypatch.setattr(ex, "SEARCH_BATCH_MAX_BYTES", 2**22)
    batch_rows = ex.SEARCH_BATCH_MAX_BYTES // (120 * 16)
    obj = ex.Objective.from_pairs(5, {"AB": 1.0, "CE": -0.5, "BD": 0.25})
    tracemalloc.start()
    try:
        ex.random_search_max(obj, batch_rows * ex.SEARCH_RESTARTS * ex.SEARCH_ROUNDS, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * batch_rows * 120 * 16


@pytest.mark.parametrize(
    "fixed, coefficients, degeneracy",
    [
        ({}, {"AB": 1, "CD": 1}, 6),
        ({}, {"AB": 1e10, "CD": 1e10}, 6),
        ({}, {"AB": 1e-10, "CD": 2e-10}, 6),
        ({}, {"AB": 1.234, "CD": 1.234, "AC": -0.3}, 2),
        ({}, {"AB": 1.234e10, "CD": 1.234e10, "AC": -0.3e10}, 2),
        ({"AB": 1}, {"AB": 1e-12, "CD": 2e-12}, 6),
        # the restriction of AB - CD to v_AB = v_CD = +1 is roundoff around 0
        ({"AB": 1, "CD": 1}, {"AB": 1, "CD": -1}, 6),
    ],
)
def test_degeneracy_is_scale_free(fixed, coefficients, degeneracy):
    objective = ex.Objective.from_pairs(4, coefficients)
    constraints = [ex.Constraint(P(p), s) for p, s in fixed.items()]
    result = ex.constrained_extremal(constraints, objective) if fixed else ex.max_expectation(objective)
    assert result.degeneracy == degeneracy


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=hst.sampled_from([3, 4]),
    raw=hst.lists(hst.floats(-1.0, 1.0), min_size=6, max_size=6),
    k=hst.integers(-12, 12),
)
def test_rescaled_weights_keep_degeneracy_and_value(n, raw, k):
    weights = np.array(raw[: len(gc.canonical_pairs(n))])
    assume(np.abs(weights).max() >= 1e-3)
    unit = ex.max_expectation(ex.Objective(n, weights))
    scaled = ex.max_expectation(ex.Objective(n, weights * 10.0**k))
    assert scaled.degeneracy == unit.degeneracy
    assert abs(scaled.value / 10.0**k - unit.value) <= 1e-9 * abs(unit.value)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=hst.sampled_from([3, 4, 5]),
    raw=hst.lists(hst.floats(-1.0, 1.0), min_size=10, max_size=10),
    order=hst.permutations(range(10)),
    signs=hst.lists(hst.sampled_from([1, -1]), min_size=3, max_size=3),
    k=hst.integers(0, 3),
)
def test_constrained_extremal_matches_an_svd_kernel_reference(n, raw, order, signs, k):
    pairs = gc.canonical_pairs(n)
    weights = np.array(raw[: len(pairs)])
    assume(np.any(weights != 0.0))
    fixed = [pairs[i] for i in order if i < len(pairs)][:k]
    constraints = [ex.Constraint(p, s) for p, s in zip(fixed, signs)]

    # reference: kernel of the stacked (Pi_i - s_i I) from an SVD, then eigvalsh
    mats = dict(zip(pairs, (op.matrix() for op in gc.all_exchange_operators(n))))
    dim = gc.factorial_dim(n)
    M = sum(c * mats[p] for c, p in zip(weights, pairs))
    N = np.eye(dim)
    if constraints:
        _, sing, vt = np.linalg.svd(np.vstack([mats[c.pair] - c.value * np.eye(dim) for c in constraints]))
        N = vt[sing <= 1e-8].T
    if N.shape[1] == 0:
        with pytest.raises(InfeasibleError):
            ex.constrained_extremal(constraints, ex.Objective(n, weights))
        return
    reference = np.linalg.eigvalsh(N.T @ M @ N)[-1]
    result = ex.constrained_extremal(constraints, ex.Objective(n, weights))
    assert abs(result.value - reference) <= 1e-9 * max(1.0, np.abs(weights).sum())
