"""Every public callable returns or refuses with a statmon error, whatever it is given.

TABLE gives each callable export of statmon.__all__ (and a few public methods
and module functions) its argument slots, each a strategy of valid values.
Hypothesis draws every slot from its valid values mixed with ADVERSARIAL ones.
A call must return or raise a StatmonError subclass, let no warning escape,
and keep its tracemalloc peak under PEAK_BYTES, so a size gate that comes
after its allocation shows.
"""

import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import statmon
from statmon import (
    BasisOrdering,
    Constraint,
    MixedState,
    Objective,
    Pair,
    ScenarioGraph,
    StatmonError,
    canonical_pairs,
    exchange_operator,
    named_state,
    random_pure_state,
    state_to_jsonable,
    surface_mesh,
)

EXAMPLES = 25  # per table entry, derandomized: the sweep is the same on every run
PEAK_BYTES = 2**24  # the valid inputs below peak at 8.9 MB; an allocation made before its size gate exceeds it

ADVERSARIAL = st.sampled_from([
    True, np.True_, None, "x", "1.5", b"1", {}, {"n": 3}, math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0,
    [], [[]], (), [[1.0, 2.0], [3.0]], [[0.5, 0.5], [0.5, 0.5]], [True, 0.0, 0.0], ["a", 0, 0], [None] * 3,
    1j, [1j, 0.0, 0.0], np.float64(0.5), np.int64(3), np.complex128(1j), np.array([math.nan] * 6),
    10**400, -(10**400), [10**400, 0, 0], 2**70, 2**16, 0.5, -1, 0,
])


def mixed(valid):
    return st.one_of(valid, ADVERSARIAL)


def pool(*values):
    return st.sampled_from(values)


STATES = [named_state("eq5"), named_state("eq6"), random_pure_state(2, 0), random_pure_state(4, 1), random_pure_state(7, 2)]
MIXTURE = MixedState.from_mixture([0.25, 0.75], STATES[:2])
PAIRS = canonical_pairs(4)
MESH = surface_mesh(3, 2)
GRAPHS = [
    ScenarioGraph.from_jsonable({"n": 4, "fixed": {"AB": 1, "BC": 1}, "free": ["AC"]}),
    ScenarioGraph.from_jsonable({"n": 3, "fixed": {"AB": -1}, "free": ["BC", "AC"]}),
    ScenarioGraph.from_jsonable({"n": 4, "fixed": {"AB": 1, "CD": 1}}),
]

ANY = ADVERSARIAL  # records and exceptions hold whatever they are given
N = pool(2, 3, 4, 5)
REAL = st.floats(-1.5, 1.5)
ANGLE = st.floats(0.0, 7.0)
SIGN = pool(1, -1, "+", "-")
COUNT = st.integers(0, 300)
SEED = st.integers(0, 2**32)
PAIR = pool(*PAIRS)
V = st.lists(REAL, min_size=3, max_size=3)
AMPLITUDES = pool(*[s.amplitudes.tolist() for s in STATES], [1.0, 2.0, 0.0, 0.0, 0.0, 0.0], [3.0, 4.0])
STATE = pool(*STATES, MIXTURE)
OBJECTIVE = pool(Objective.from_pairs(3, {"AB": 1.0, "BC": -1.0}), Objective.from_pairs(4, {"AC": -1.0, "BD": 2.0}))
CONSTRAINTS = st.lists(st.builds(Constraint, PAIR, pool(1, -1)), max_size=3)
ORDERING = pool(BasisOrdering.canonical(3), BasisOrdering.canonical(4), BasisOrdering(3, "lex"))
MATRIX = st.builds(lambda d, s: np.random.default_rng(s).uniform(-1.0, 1.0, (d, d)), st.integers(1, 6), SEED).map(
    lambda A: (A + A.T) / 2.0
)
OPERATOR = pool(exchange_operator(3, PAIRS[0]), exchange_operator(4, PAIRS[5]), statmon.w_theta(1.0), np.eye(6))


def slots(*valid):
    """The call's positional arguments, each drawn from its valid values or ADVERSARIAL."""
    return st.tuples(*map(mixed, valid))


TABLE = {
    # records and exceptions: hold what they are given
    "AuditReport": slots(ANY, ANY, ANY, ANY),
    "ExtremalResult": slots(ANY, ANY, ANY, ANY),
    "RegionCheck": slots(ANY, ANY, ANY, ANY),
    "ScenarioBound": slots(*[ANY] * 9),
    "SpectralDecomposition": slots(ANY, ANY, ANY, ANY, ANY),
    "SurfacePoint": slots(*[ANY] * 6),
    "WFrame": slots(*[ANY] * 6),
    "StatmonError": slots(ANY),
    "ValidationError": slots(ANY),
    "CapacityError": slots(ANY),
    "ContractError": slots(ANY),
    "ConvergenceError": slots(ANY),
    "InfeasibleError": slots(ANY),
    # eigh
    "symmetric_spectrum": slots(MATRIX),
    "eigh.hermitian_min_eigenvalue": slots(MATRIX | pool(MIXTURE.matrix)),
    # extremal
    "Constraint": slots(PAIR, pool(1, -1)),
    "Objective": slots(N, st.lists(REAL, min_size=1, max_size=6)),
    "Objective.from_pairs": slots(N, st.dictionaries(pool("AB", "BC", "AC", "CD", "AD"), REAL, max_size=3)),
    "constrained_extremal": slots(CONSTRAINTS, OBJECTIVE),
    "constraint_projector": slots(N, CONSTRAINTS),
    "joint_eigenspace_basis": slots(N, CONSTRAINTS),
    "max_expectation": slots(OBJECTIVE),
    "extremal.orbit_space": slots(N, CONSTRAINTS),
    "random_search_max": slots(OBJECTIVE, st.integers(60, 200), SEED),
    "symmetric_ray_extreme": slots(V),
    # group_core
    "BasisOrdering": slots(N, pool("lex", "paper3")),
    "ExchangeOperator": slots(ORDERING, PAIR),
    "Pair": slots(st.integers(0, 3), st.integers(0, 4)),
    "Pair.of": slots(st.integers(0, 3), st.integers(0, 4)),
    "Pair.parse": slots(pool("AB", "ba", "CD", "AA", "A")),
    "PermutationOperator": slots(ORDERING, st.permutations(range(6))),
    "all_exchange_operators": slots(N),
    "canonical_pairs": slots(N),
    "cyclic_operator": slots(),
    "exchange_operator": slots(N, PAIR),
    "relabel": slots(pool((0, 1, 2), (2, 0, 1), (3, 1, 0, 2)), PAIR),
    # monogamy
    "SurfaceMesh": slots(st.lists(ANGLE, max_size=3), st.lists(st.floats(0.0, 1.6), max_size=3)),
    "region_audit": slots(COUNT, SEED, COUNT),
    "surface_mesh": slots(st.integers(0, 6), st.integers(0, 6)),
    "surface_state": slots(ANGLE, st.floats(0.0, 1.6), SIGN, SIGN),
    "write_mesh_csv": slots(pool(MESH), st.builds(io.StringIO)),
    # npartite
    "ScenarioGraph": slots(pool(3, 4), pool(((PAIRS[0], 1),), ((PAIRS[0], 1), (PAIRS[1], -1))), pool((PAIRS[2],), ())),
    "ScenarioGraph.from_jsonable": slots(pool({"n": 4, "fixed": {"AB": 1}, "free": ["CD"]}, {"n": 3, "free": ["AB"]})),
    "scenario_report": slots(pool(*GRAPHS)),
    "spectral_bound": slots(pool(*GRAPHS)),
    "triangle_bounds": slots(pool(*GRAPHS)),
    # observables
    "antibunching_probability": slots(REAL),
    "bunching_probability": slots(REAL),
    "chi_state": slots(ANGLE, st.floats(0.0, 1.6), SIGN, SIGN),
    "expectation": slots(STATE, OPERATOR),
    "v_vector": slots(STATE),
    "w_frame": slots(),
    "w_theta": slots(ANGLE),
    # region
    "RegionCheck.evaluate": slots(V, st.integers(1, 50)),
    "check_sqrt": slots(V),
    "check_theta": slots(V, ANGLE),
    "theta_family_margin": slots(V, st.integers(1, 50)),
    # states
    "MixedState": slots(pool(2, 3, 6, 7), pool(MIXTURE.matrix, np.eye(2) / 2.0, np.eye(6) / 6.0)),
    "MixedState.from_mixture": slots(pool([1.0], [0.5, 0.5], [0.2, 0.8]), pool(STATES[:1], STATES[:2], STATES[1:3], STATES[4:])),
    "PureState": slots(N, AMPLITUDES),
    "apply": slots(OPERATOR, STATE),
    "equal_up_to_global_phase": slots(STATE, STATE, st.floats(0.0, 1.0)),
    "named_state": slots(pool("eq5", "eq6", "chi", "nope")),
    "normalize": slots(AMPLITUDES, pool(None, 3)),
    "random_pure_state": slots(N, SEED),
    "state_from_jsonable": slots(pool(*[state_to_jsonable(s) for s in STATES])),
    "state_to_jsonable": slots(STATE),
}


def _resolve(name):
    value = statmon
    for part in name.split("."):
        value = getattr(value, part)
    return value


def test_every_public_callable_has_a_table_entry():
    missing = [name for name in statmon.__all__ if callable(getattr(statmon, name)) and name not in TABLE]
    assert not missing


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_call_returns_or_refuses_with_a_statmon_error(name, data):
    args = data.draw(TABLE[name])
    function = _resolve(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            function(*args)
        except StatmonError:
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peak < PEAK_BYTES


@pytest.mark.parametrize(
    "call",
    [
        lambda: statmon.PureState(3, "abcdef"),
        lambda: statmon.PureState(3, [{}] * 6),
        lambda: statmon.PureState(3, [[1, 0, 0, 0, 0, 0]]),  # flattened before, now refused
        lambda: statmon.Objective(3, ["a", 0, 0]),
        lambda: statmon.Objective(3, [1j, 0, 0]),
        lambda: statmon.Objective(3, [[1.0, 0.0, 0.0]]),
        lambda: statmon.surface_state("a", 0, 1, 1),
        lambda: statmon.normalize("abcdef"),
        lambda: statmon.MixedState(3, "x"),
        lambda: statmon.eigh.hermitian_min_eigenvalue("ab"),
        lambda: statmon.expectation(named_state("eq5"), "x"),
        lambda: statmon.symmetric_ray_extreme("abc"),
        lambda: statmon.symmetric_ray_extreme([1j, 0, 0]),
        lambda: statmon.symmetric_ray_extreme([[1.0, 0.0, 0.0]]),
        lambda: MixedState.from_mixture([1.0], ["x"]),
        lambda: MixedState.from_mixture(["x"], [1.0]),
        lambda: statmon.joint_eigenspace_basis(3, [1]),
        lambda: ScenarioGraph(4, [1], ()),
        lambda: Pair(0.5, 1),
        lambda: statmon.relabel((0, 1, 2), Pair(0, 5)),
    ],
    ids=[
        "text-amplitudes", "dict-amplitudes", "row-amplitudes", "text-weight", "complex-weight", "row-weights",
        "text-theta", "text-normalize", "text-density", "text-hermitian", "text-operator", "text-direction",
        "complex-direction", "row-direction", "text-component", "text-mixture-weight", "int-constraint",
        "int-fixed-edge", "float-box", "pair-beyond-word",
    ],
)
def test_inputs_that_escaped_as_python_errors_are_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StatmonError):
            call()
