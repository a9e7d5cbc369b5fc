"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Criterion 4, the operator algebra, runs checks of the selftest
registry (`statmon.selftest.CHECKS`), which pins their tolerances; every
other criterion pins its tolerances here.
"""

import numpy as np
import pytest

from statmon import extremal as ex
from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import npartite as npx
from statmon import observables as ob
from statmon import selftest
from statmon import states as st

TOL = 1e-9


def _line(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def mesh_128x64():
    return mg.surface_mesh(128, 64)


def test_c01_fermion_under_boson_bound():
    result = ex.constrained_extremal(
        [ex.Constraint(gc.Pair.parse("AB"), +1)],
        ex.Objective.from_pairs(3, {"BC": -1.0}),
    )
    min_v_bc = -result.value
    assert abs(min_v_bc - (-0.5)) <= TOL
    assert np.abs(result.v - np.array([1.0, -0.5, -0.5])).max() <= TOL
    _line(1, f"min v_BC given v_AB=1 is {min_v_bc:.12f}, state v = {result.v.round(12).tolist()}")


def test_c02_boson_under_fermion_bound():
    result = ex.constrained_extremal(
        [ex.Constraint(gc.Pair.parse("AB"), -1)],
        ex.Objective.from_pairs(3, {"BC": +1.0}),
    )
    assert abs(result.value - 0.5) <= TOL
    assert np.abs(result.v - np.array([-1.0, 0.5, 0.5])).max() <= TOL
    _line(2, f"max v_BC given v_AB=-1 is {result.value:.12f}, state v = {result.v.round(12).tolist()}")


def test_c03_nontransitive_point():
    x = ex.symmetric_ray_extreme([1.0, 1.0, -1.0])
    assert abs(x - 0.6) <= TOL
    v = ob.v_vector(st.named_state("nontransitive_3_5"))
    assert np.abs(v - np.array([0.6, 0.6, -0.6])).max() <= TOL
    bunch = ob.bunching_probability(v[0])
    antibunch = ob.antibunching_probability(v[2])
    assert abs(bunch - 0.8) <= TOL and abs(antibunch - 0.8) <= TOL
    assert bunch > 0.75
    _line(3, f"ray extreme x = {x:.12f}; state v = {v.round(12).tolist()}; bunching {bunch} > 3/4")


def test_c04_operator_algebra_suite():
    details = [selftest.cyclic_identities(), selftest.w_algebra(), selftest.w_spectra()]
    _line(4, "; ".join(details))


def test_c05_region_soundness():
    report = mg.region_audit(100000, 42, mixed_samples=10000)
    assert report.samples == 110000
    assert report.violations == 0
    assert report.min_margin >= -TOL
    _line(5, f"10^5 pure + 10^4 mixed at seed 42: min margin {report.min_margin:.6f}, "
             f"{report.violations} violations")


def test_c06_surface_tightness(mesh_128x64):
    V = np.array([p.v for p in mesh_128x64])
    margins = np.array([mg.check_sqrt(v) for v in V])
    assert np.abs(margins).max() <= TOL

    apex_plus = np.linalg.norm(V - np.ones(3), axis=1).min()
    apex_minus = np.linalg.norm(V + np.ones(3), axis=1).min()
    assert apex_plus <= TOL and apex_minus <= TOL

    equator = np.linalg.norm(V - np.array([1.0, -0.5, -0.5]), axis=1).min()
    assert equator <= 1e-6
    _line(6, f"128x64 mesh: max |margin| {np.abs(margins).max():.1e}; apexes at "
             f"{apex_plus:.1e}/{apex_minus:.1e}; nearest to (1,-1/2,-1/2) {equator:.1e}")


def test_c06_surface_contains_nontransitive_point(mesh_128x64):
    # The nontransitive extreme sits at theta = pi/3, cos^2(phi) = 1/5; a
    # uniform 128x64 parameter grid has no node there (128 is not divisible
    # by 3 and arccos(1/sqrt(5)) is an irrational fraction of pi/2), so the
    # nearest mesh vertex stays ~1.9e-2 away.  Asserted at the stated 1e-6
    # regardless; see the failure message for the measured distance.
    V = np.array([p.v for p in mesh_128x64])
    distance = np.linalg.norm(V - np.array([0.6, 0.6, -0.6]), axis=1).min()
    ok = distance <= 1e-6
    print(f"[criterion 6] {'PASS' if ok else 'FAIL'}: nearest mesh point to "
          f"(3/5, 3/5, -3/5) is {distance:.6e} (required <= 1e-6)")
    assert ok, (
        f"nearest 128x64 mesh point to (0.6, 0.6, -0.6) is {distance:.6e}; "
        "a uniform grid cannot contain theta = pi/3 (k = 128/3) nor "
        "cos^2(phi) = 1/5, so the 1e-6 containment is unattainable at this size"
    )


def test_c07_four_box_two_boson_scenario():
    objective = ex.Objective.from_pairs(
        4, {"AB": 1, "CD": 1, "AC": -1, "AD": -1, "BC": -1, "BD": -1}
    )
    result = ex.max_expectation(objective)
    assert abs(result.value - 4.0) <= TOL
    pairs = [p.label() for p in gc.canonical_pairs(4)]
    v = dict(zip(pairs, result.v))
    assert abs(v["AB"] - 1.0) <= TOL and abs(v["CD"] - 1.0) <= TOL
    for cross in ("AC", "AD", "BC", "BD"):
        assert abs(v[cross] + 0.5) <= TOL
    _line(7, f"largest eigenvalue {result.value:.12f}; attaining v "
             f"{result.v.round(12).tolist()}")


def test_c08_four_box_boson_triangle_scenario():
    graph = npx.ScenarioGraph.from_jsonable(
        {"n": 4, "fixed": {"AB": 1, "AC": 1, "BC": 1}, "free": ["AD", "BD", "CD"]}
    )
    report = npx.scenario_report(graph)
    assert abs(report.lambda_max - 4.0) <= TOL
    assert abs(report.spectral_bound - 1.0 / 3.0) <= TOL
    assert abs(report.triangle_bound - 0.5) <= TOL
    assert report.improvement is True
    _line(8, f"lambda {report.lambda_max:.12f} gives x <= {report.spectral_bound:.12f}; "
             f"triangles give {report.triangle_bound:.12f}; improvement flagged")


def test_c09_sampled_oracle_matches_eigenvalue_route():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for k in range(20):
        objective = ex.Objective(3, rng.standard_normal(3))
        lam = ex.max_expectation(objective).value
        sampled, _ = ex.random_search_max(objective, 10000, seed=7000 + k)
        assert sampled <= lam + TOL
        gap = lam - sampled
        assert gap <= 0.05
        worst_gap = max(worst_gap, gap)
    _line(9, f"20 objectives, 10^4 sampled states each: max shortfall {worst_gap:.2e} "
             f"(<= 0.05), never exceeding the eigenvalue")
