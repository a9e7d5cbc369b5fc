import itertools

import numpy as np
import pytest

from statmon import extremal as ex
from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import npartite as npx
from statmon.errors import CapacityError, InfeasibleError, ValidationError

FIG2A = {"n": 4, "fixed": {"AB": 1, "CD": 1}, "free": ["AC", "AD", "BC", "BD"]}
FIG2B = {"n": 4, "fixed": {"AB": 1, "AC": 1, "BC": 1}, "free": ["AD", "BD", "CD"]}


def test_scenario_graph_validation():
    with pytest.raises(ValidationError):
        npx.ScenarioGraph.from_jsonable({"n": 4, "fixed": {"AB": 2}, "free": []})
    with pytest.raises(ValidationError):
        npx.ScenarioGraph.from_jsonable({"n": 4, "fixed": {"AB": 1}, "free": ["AB"]})
    with pytest.raises(ValidationError):
        npx.ScenarioGraph.from_jsonable({"n": 3, "fixed": {"AD": 1}, "free": []})
    # refused by the graph itself, not later by the objective it would build
    with pytest.raises(ValidationError, match="scenario needs at least one fixed or free edge"):
        npx.ScenarioGraph.from_jsonable({"n": 4, "fixed": {}, "free": []})
    graph = npx.ScenarioGraph.from_jsonable(FIG2A)
    assert graph.n == 4 and len(graph.fixed) == 2 and len(graph.free) == 4


@pytest.mark.parametrize(
    "obj, message",
    [
        ([1, 2], "malformed scenario JSON: list indices must be integers"),
        ({"fixed": {"AB": 1}, "free": []}, "malformed scenario JSON: 'n'"),
    ],
    ids=["a-list", "no-n"],
)
def test_scenario_json_refusals(obj, message):
    with pytest.raises(ValidationError, match=message):
        npx.ScenarioGraph.from_jsonable(obj)


def test_scenario_json_round_trip():
    graph = npx.ScenarioGraph.from_jsonable(FIG2B)
    assert npx.ScenarioGraph.from_jsonable(graph.to_jsonable()) == graph


def test_triangle_bounds_two_boson_scenario():
    graph = npx.ScenarioGraph.from_jsonable(FIG2A)
    assert abs(npx.triangle_bounds(graph) - 0.5) <= 1e-15


def test_triangle_bounds_boson_triangle_scenario():
    graph = npx.ScenarioGraph.from_jsonable(FIG2B)
    assert abs(npx.triangle_bounds(graph) - 0.5) <= 1e-15


def _bisected_x_bound(slots):
    """Reference: bisect the membership predicate along x for 80 steps."""

    def inside(x):
        return mg.check_sqrt([-x if s is None else s for s in slots]) >= -npx.BOUND_PREDICATE_TOL

    if not inside(0.0):
        raise InfeasibleError(f"pattern {slots} is infeasible at x = 0")
    lo, hi = 0.0, 1.0
    if inside(hi):
        return hi
    for _ in range(80):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize(
    "slots",
    [list(p) for p in itertools.product((1.0, -1.0, None), repeat=3) if None in p],
    ids=lambda slots: "".join({1.0: "+", -1.0: "-", None: "x"}[s] for s in slots),
)
def test_triangle_x_bound_matches_bisection(slots):
    try:
        expected = _bisected_x_bound(slots)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            npx._triangle_x_bound(slots)
        return
    assert abs(npx._triangle_x_bound(slots) - expected) <= 1e-9


def test_triangle_bounds_requires_free_edges():
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "AC": 1, "AD": 1, "BC": 1, "BD": 1, "CD": 1}, "free": []}
    )
    with pytest.raises(ValidationError):
        npx.triangle_bounds(graph)


def test_triangle_bounds_detects_infeasible_fixed_triangle():
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "BC": 1, "AC": -1}, "free": ["AD", "BD", "CD"]}
    )
    with pytest.raises(InfeasibleError):
        npx.triangle_bounds(graph)


def test_spectral_bound_two_boson_scenario():
    report = npx.spectral_bound(npx.ScenarioGraph.from_jsonable(FIG2A))
    assert abs(report.lambda_max - 4.0) < 1e-9
    assert abs(report.spectral_bound - 0.5) < 1e-9
    assert report.pattern_attained
    expected = np.array([1.0, -0.5, -0.5, -0.5, -0.5, 1.0])  # AB,AC,AD,BC,BD,CD
    assert np.abs(report.attaining_v - expected).max() < 1e-9


def test_spectral_bound_boson_triangle_scenario():
    report = npx.spectral_bound(npx.ScenarioGraph.from_jsonable(FIG2B))
    assert abs(report.lambda_max - 4.0) < 1e-9
    assert abs(report.spectral_bound - 1.0 / 3.0) < 1e-9


def test_scenario_reports():
    ra = npx.scenario_report(npx.ScenarioGraph.from_jsonable(FIG2A))
    assert abs(ra.triangle_bound - 0.5) < 1e-9
    assert abs(ra.spectral_bound - 0.5) < 1e-9
    assert ra.improvement is False

    rb = npx.scenario_report(npx.ScenarioGraph.from_jsonable(FIG2B))
    assert abs(rb.triangle_bound - 0.5) < 1e-9
    assert abs(rb.spectral_bound - 1.0 / 3.0) < 1e-9
    assert rb.improvement is True


def test_all_boson_clique_is_feasible():
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "AC": 1, "AD": 1, "BC": 1, "BD": 1, "CD": 1}, "free": []}
    )
    report = npx.scenario_report(graph)
    assert report.feasible is True
    assert report.triangle_bound is None and report.spectral_bound is None
    assert abs(report.lambda_max - 6.0) < 1e-9
    assert report.pattern_attained
    assert np.abs(report.attaining_v - 1.0).max() < 1e-9


def test_three_box_scenario_matches_constrained_route():
    graph = npx.ScenarioGraph.from_jsonable({"n": 3, "fixed": {"AB": 1}, "free": ["BC", "AC"]})
    report = npx.scenario_report(graph)
    assert abs(report.spectral_bound - 0.5) < 1e-9
    assert abs(report.triangle_bound - 0.5) < 1e-9
    constrained = ex.constrained_extremal(
        [ex.Constraint(gc.Pair.parse("AB"), +1)],
        ex.Objective.from_pairs(3, {"BC": -1.0, "AC": -1.0}),
    )
    # <M> = 1 + 2x at the scenario pattern: the two routes agree
    assert abs((report.lambda_max - 1.0) / 2.0 - constrained.value / 2.0) < 1e-9


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 4, "fixed": {"AB": 1, "BC": -1}, "free": ["CD"]},
        {"n": 5, "fixed": {"AB": 1, "BC": -1, "DE": 1}, "free": ["AD"]},
    ],
    ids=["n4", "n5"],
)
def test_report_refuses_fixed_edges_no_state_meets(obj):
    # v_AB = +1 and v_BC = -1 have no common eigenvector, but AC is untyped,
    # so no triangle sees them; the spectral bound alone is only a relaxation
    graph = npx.ScenarioGraph.from_jsonable(obj)
    assert npx.triangle_bounds(graph) == 1.0
    assert npx.spectral_bound(graph).spectral_bound is not None
    with pytest.raises(InfeasibleError, match="empty joint eigenspace"):
        npx.scenario_report(graph)


def test_partial_coverage_skips_untyped_triangles():
    # AD is neither fixed nor free: triangles through AD are skipped but the
    # ABC triangle still bounds x
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1}, "free": ["BC", "AC"]}
    )
    assert abs(npx.triangle_bounds(graph) - 0.5) < 1e-9


def _reference_attainment(n, fixed, free):
    """Attainment by its definition, from max_expectation of the scenario
    objective: fixed pairs at their sign, free pairs at -x_bound (with no free
    edges, feasibility instead); pairs neither fixed nor free are ignored."""
    pairs = gc.canonical_pairs(n)
    weights = [fixed.get(p, -1.0 if p in free else 0.0) for p in pairs]
    top = ex.max_expectation(ex.Objective(n, weights))
    v = dict(zip(pairs, top.v))
    attained = all(abs(v[p] - s) <= npx.PATTERN_TOL for p, s in fixed.items())
    if not free:
        return attained and top.value >= len(fixed) - npx.PATTERN_TOL
    x_bound = (top.value - len(fixed)) / len(free)
    return attained and all(abs(v[p] + x_bound) <= npx.PATTERN_TOL for p in free)


def test_spectral_attainment_ignores_pairs_neither_fixed_nor_free():
    rng = np.random.default_rng(16)
    outcomes = set()
    for _ in range(120):
        n = int(rng.integers(3, 6))
        roles = rng.integers(0, 4, size=len(gc.canonical_pairs(n)))  # neither, +1, -1, free
        if roles.all() or not roles.any():
            continue  # no untyped pair, or nothing typed at all
        fixed = {p: (1 if r == 1 else -1) for p, r in zip(gc.canonical_pairs(n), roles) if r in (1, 2)}
        free = [p for p, r in zip(gc.canonical_pairs(n), roles) if r == 3]
        report = npx.spectral_bound(npx.ScenarioGraph(n, tuple(fixed.items()), tuple(free)))
        assert report.pattern_attained == _reference_attainment(n, fixed, free)
        outcomes.add(report.pattern_attained)
    assert outcomes == {True, False}
    # the top eigenstate keeps CD = +1 but its free edges do not share one value
    graph = npx.ScenarioGraph.from_jsonable({"n": 5, "fixed": {"CD": 1}, "free": ["AC", "AD", "BE"]})
    assert not npx.spectral_bound(graph).pattern_attained
    assert not _reference_attainment(5, graph.fixed_map, list(graph.free))


def test_spectral_capacity_error():
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 7, "fixed": {"AB": 1}, "free": ["BC"]}
    )
    with pytest.raises(CapacityError):
        npx.spectral_bound(graph)


def test_report_json_schema():
    payload = npx.scenario_report(npx.ScenarioGraph.from_jsonable(FIG2B)).to_jsonable()
    assert payload["improvement"] is True
    assert payload["pairs"] == ["AB", "AC", "AD", "BC", "BD", "CD"]
    assert payload["attaining_state"] is None or payload["attaining_state"]["n"] == 4
