import numpy as np
import pytest

from statmon import extremal as ex
from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import observables as ob
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


def test_constrained_never_beats_unconstrained():
    rng = np.random.default_rng(15)
    for _ in range(5):
        obj = ex.Objective(3, rng.standard_normal(3))
        free = ex.max_expectation(obj).value
        bound = ex.constrained_extremal([ex.Constraint(P("AB"), +1)], obj).value
        assert bound <= free + 1e-9


def test_extremal_states_are_physical():
    rng = np.random.default_rng(16)
    for _ in range(5):
        obj = ex.Objective(3, rng.standard_normal(3))
        result = ex.max_expectation(obj)
        assert mg.check_sqrt(result.v) >= -1e-9


def test_joint_eigenspace_and_projector():
    constraints = [ex.Constraint(P("AB"), +1), ex.Constraint(P("BC"), +1)]
    basis = ex.joint_eigenspace_basis(3, constraints)
    assert basis.shape == (6, 1)  # only the fully symmetric state survives
    Pmat = ex.constraint_projector(3, constraints)
    assert np.abs(Pmat @ Pmat - Pmat).max() < 1e-10
    for c in constraints:
        M = gc.exchange_operator(3, c.pair).matrix()
        assert np.abs(Pmat @ M - M @ Pmat).max() < 1e-10
        assert np.abs(M @ basis - c.value * basis).max() < 1e-10


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


def test_random_search_is_a_lower_bound_that_improves():
    obj = ex.Objective.from_pairs(3, {"AB": 1, "BC": 1, "AC": 1})
    lam = ex.max_expectation(obj).value
    coarse, _ = ex.random_search_max(obj, 600, seed=5, restarts=2, rounds=3)
    fine, _ = ex.random_search_max(obj, 10000, seed=5)
    assert coarse <= lam + 1e-9
    assert fine <= lam + 1e-9
    assert fine >= coarse - 1e-12
    assert lam - fine < 0.05


def test_dense_eigensolve_capacity():
    with pytest.raises(Exception) as info:
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
