import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h
from hypothesis.extra.numpy import arrays

from statmon import group_core as gc
from statmon import monogamy as mg
from statmon import observables as ob
from statmon import states as st
from statmon.errors import CapacityError, ConvergenceError, ValidationError


def test_check_theta_examples():
    for theta in (0.0, 0.9, 2.0, 5.5):
        assert abs(mg.check_theta([1, 1, 1], theta) - 3.0) < 1e-12
        assert mg.check_theta([0, 0, 0], theta) == 0.0
    # the nontransitive extreme point touches 3 at its optimal angle
    thetas = np.arange(720) * 2.0 * np.pi / 720
    best = max(mg.check_theta([0.6, 0.6, -0.6], t) for t in thetas)
    assert abs(best - 3.0) < 2e-5 * 3


def test_check_sqrt_boundary_values():
    assert abs(mg.check_sqrt([1.0, -0.5, -0.5])) < 1e-12
    assert abs(mg.check_sqrt([0.6, 0.6, -0.6])) < 1e-12
    assert abs(mg.check_sqrt([1.0, 1.0, 1.0])) < 1e-12


def test_check_sqrt_symmetric_ray_closed_form():
    for x in (0.1, 0.25, 0.5, 0.59, 0.6, 0.7, 1.0):
        margin = mg.check_sqrt([x, x, -x])
        assert abs(margin - (1.0 - 5.0 * x / 3.0)) < 1e-12


def test_check_sqrt_outside_point():
    # (1, 1, -1) violates transitivity; direct evaluation gives margin -2/3
    margin = mg.check_sqrt([1.0, 1.0, -1.0])
    assert margin < 0.0
    assert abs(margin + 2.0 / 3.0) < 1e-12


def test_check_validates_range():
    with pytest.raises(ValidationError):
        mg.check_sqrt([1.5, 0.0, 0.0])
    with pytest.raises(ValidationError):
        mg.check_theta([0.0, np.nan, 0.0], 1.0)


@pytest.mark.parametrize(
    "v",
    [np.zeros((1, 3)), np.zeros((3, 1)), np.float64(0.5), [0.0, 0.0], [0.0] * 4, ["a", 0, 0], [1j, 0, 0], "100", b"100"],
    ids=["row", "column", "scalar", "two", "four", "text", "complex", "string", "bytes"],
)
def test_check_refuses_a_v_that_is_not_three_numbers(v):
    checks = (mg.check_sqrt, lambda v: mg.check_theta(v, 1.0), mg.theta_family_margin, mg.RegionCheck.evaluate)
    for check in checks:
        with pytest.raises(ValidationError, match="expected 3 pair expectations"):
            check(v)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_check_theta_refuses_a_nonfinite_angle(theta):
    # cos/sin of NaN or inf gave nan and a RuntimeWarning, not a refusal
    with pytest.raises(ValidationError, match="theta must be finite"):
        mg.check_theta([0.1, 0.2, 0.3], theta)


@pytest.mark.parametrize("turns", [-3, -1, 1, 7])
def test_check_theta_is_periodic(turns):
    v = [0.6, 0.6, -0.6]
    assert abs(mg.check_theta(v, 0.9 + 2.0 * np.pi * turns) - mg.check_theta(v, 0.9)) < 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    arrays(
        np.float64,
        (3,),
        elements=st_h.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )
)
def test_theta_family_never_beats_sqrt_form(v):
    # grid max of the family is a lower bound on the sqrt-form supremum
    family = 1.0 - mg.theta_family_margin(v, 720) / 3.0
    exact = 1.0 - mg.check_sqrt(v)
    assert family <= exact + 1e-12
    assert exact - family <= 2e-5
    assert mg.check_sqrt(v) == mg.check_sqrt(-v)


def test_region_check_relation_between_margins():
    for v in ([0.3, -0.2, 0.1], [1.0, -0.5, -0.5], [0.9, 0.9, -0.9]):
        rc = mg.RegionCheck.evaluate(v)
        assert type(rc.v) is tuple and rc.v == tuple(v)
        assert rc.theta_margin >= 3.0 * rc.sqrt_margin - 1e-12
        assert rc.inside == (rc.sqrt_margin >= -1e-9)


def test_surface_state_examples():
    apex = mg.surface_state(0.7, 0.0, +1, +1)
    assert np.abs(apex.v - 1.0).max() < 1e-12
    anti_apex = mg.surface_state(0.7, 0.0, -1, +1)
    assert np.abs(anti_apex.v + 1.0).max() < 1e-12
    equator = mg.surface_state(0.0, np.pi / 2.0, +1, +1)
    assert np.abs(equator.v - np.array([1.0, -0.5, -0.5])).max() < 1e-9


def test_surface_mesh_properties():
    points = mg.surface_mesh(16, 9)
    assert len(points) == 16 * 9 * 4
    V = np.array([p.v for p in points])
    margins = np.array([mg.check_sqrt(v) for v in V])
    assert np.abs(margins).max() < 1e-9
    # apexes present, v -> -v symmetry within roundoff
    assert np.linalg.norm(V - np.ones(3), axis=1).min() < 1e-12
    assert np.linalg.norm(V + np.ones(3), axis=1).min() < 1e-12
    lookup = {(p.theta, p.phi, p.s1, p.s2): p.v for p in points}
    for (theta, phi, s1, s2), v in lookup.items():
        assert np.abs(lookup[(theta, phi, -s1, -s2)] + v).max() < 1e-12
    with pytest.raises(ValidationError):
        mg.surface_mesh(1, 8)


def test_mesh_csv_format():
    text = mg.mesh_csv_text(mg.surface_mesh(2, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "v_AB,v_BC,v_AC,theta,phi,s1,s2"
    assert len(lines) == 1 + 2 * 2 * 4
    first = lines[1].split(",")
    assert first[5] in "+-" and first[6] in "+-"
    float(first[0])  # numeric fields parse


def test_region_audit_clean_and_deterministic(monkeypatch):
    a = mg.region_audit(20000, 42, mixed_samples=2000)
    monkeypatch.setattr(mg, "default_thread_count", lambda: 1)
    b = mg.region_audit(20000, 42, mixed_samples=2000)
    assert a == b
    assert a.violations == 0
    assert a.min_margin >= -1e-9
    assert a.samples == 22000
    payload = a.to_jsonable()
    assert set(payload) == {"samples", "seed", "min_margin", "violations"}


def test_region_audit_builds_the_exchange_table_once(monkeypatch):
    # the main thread builds the n = 3 table before the pool starts; slowed
    # down, a build the pool threads start together would run once in each
    gc.exchange_table.cache_clear()
    operator = gc.exchange_operator

    def slow_operator(n, pair):
        time.sleep(0.01)
        return operator(n, pair)

    monkeypatch.setattr(gc, "exchange_operator", slow_operator)
    monkeypatch.setattr(mg, "default_thread_count", lambda: 2)
    report = mg.region_audit(3 * mg.AUDIT_SHARD, 5, mixed_samples=mg.AUDIT_SHARD)
    assert report.violations == 0
    assert gc.exchange_table.cache_info().misses == 1


def test_v_of_a_lone_row_is_its_bits_in_a_full_shard():
    parts = st.gaussian_parts(3, mg.AUDIT_SHARD, np.random.default_rng(5))
    full = mg._v_of_parts(parts)
    for row in (0, 1, mg.AUDIT_BLOCK_ROWS - 1, mg.AUDIT_BLOCK_ROWS, mg.AUDIT_SHARD - 1):
        alone = mg._v_of_parts(parts[:, row:row + 1])
        assert alone.tobytes() == full[:, row:row + 1].tobytes()


def test_thread_count_is_capped_at_the_hardware_count(monkeypatch):
    # read only: no pool is started; no environment variable changes the count
    monkeypatch.setenv("STATMON_THREADS", "1000000")
    assert mg.default_thread_count() == len(os.sched_getaffinity(0))


def test_region_audit_named_states_on_boundary():
    for name in ("eq5", "eq6", "nontransitive_3_5"):
        v = ob.v_vector(st.named_state(name))
        assert abs(mg.check_sqrt(v)) < 1e-9


def test_mixtures_of_boundary_states_stay_inside():
    rng = np.random.default_rng(5)
    points = mg.surface_mesh(8, 5)
    for _ in range(100):
        i, j = rng.integers(0, len(points), size=2)
        w = rng.uniform()
        v = w * points[i].v + (1 - w) * points[j].v
        assert mg.check_sqrt(v) >= -1e-9


def test_region_audit_validation():
    with pytest.raises(ValidationError):
        mg.region_audit(0, 1)


def test_surface_state_is_the_matching_mesh_row():
    points = mg.surface_mesh(6, 4)
    for p in points[::5]:
        single = mg.surface_state(p.theta, p.phi, p.s1, p.s2)
        assert np.array_equal(single.v, p.v)
        assert np.array_equal(single.state.amplitudes, p.state.amplitudes)


def test_grid_capacity_gates_refuse_before_allocating():
    # 2**45 doubles (256 TiB) is beyond any address space: without the gate
    # numpy raises MemoryError at once instead of touching memory
    with pytest.raises(CapacityError):
        mg.surface_mesh(2**45, 2)
    with pytest.raises(CapacityError):
        mg.theta_family_margin([0.0, 0.0, 0.0], 2**45)


def _csv_one_point_at_a_time(points):
    rows = ["v_AB,v_BC,v_AC,theta,phi,s1,s2\n"]
    for p in points:
        fields = [f"{x:.12g}" for x in (*p.v, p.theta, p.phi)]
        rows.append(",".join(fields + ["+" if p.s1 > 0 else "-", "+" if p.s2 > 0 else "-"]) + "\n")
    return "".join(rows)


@pytest.mark.parametrize("block_rows", [mg.CSV_BLOCK_ROWS, 5])
def test_mesh_csv_matches_per_point_formatting(monkeypatch, block_rows):
    # 84 rows: with 5-row blocks the last block is partial
    monkeypatch.setattr(mg, "CSV_BLOCK_ROWS", block_rows)
    mesh = mg.surface_mesh(7, 3)
    assert mg.mesh_csv_text(mesh) == _csv_one_point_at_a_time(mesh)


class _WriteOnly:
    """A stream with nothing but `write`, recording each call's text."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


@pytest.mark.parametrize("block_rows", [mg.CSV_BLOCK_ROWS, 1, 5, 12])
def test_mesh_csv_writes_the_header_then_one_call_per_block(monkeypatch, block_rows):
    # 84 rows; 12-row blocks are one theta each (3 phis x 4 sign pairs)
    monkeypatch.setattr(mg, "CSV_BLOCK_ROWS", block_rows)
    mesh = mg.surface_mesh(7, 3)
    stream = _WriteOnly()
    mg.write_mesh_csv(mesh, stream)
    want = _csv_one_point_at_a_time(mesh)
    rows = want.splitlines(keepends=True)[1:]
    header, *blocks = stream.calls
    assert header == "v_AB,v_BC,v_AC,theta,phi,s1,s2\n"
    assert len(blocks) == -(-len(mesh) // block_rows)
    for start, text in zip(range(0, len(mesh), block_rows), blocks):
        assert text.endswith("\n")
        assert text == "".join(rows[start : start + block_rows])
    assert "".join(stream.calls) == want


def _same_point(p, q):
    return (
        (p.theta, p.phi, p.s1, p.s2) == (q.theta, q.phi, q.s1, q.s2)
        and np.array_equal(p.v, q.v)
        and np.array_equal(p.state.amplitudes, q.state.amplitudes)
    )


def test_mesh_indexing_matches_list_semantics():
    mesh = mg.surface_mesh(4, 3)
    points = [mesh[i] for i in range(len(mesh))]
    assert len(mesh) == len(points) == 48
    assert all(_same_point(p, q) for p, q in zip(mesh, points))
    for index in (np.int64(7), np.intp(0), -1, -48, -13):
        assert _same_point(mesh[index], points[index])
    slices = (slice(2, 9, 3), slice(None, None, -5), slice(-4, None), slice(np.int64(1), 3), slice(50, 60))
    for index in slices:
        got, want = mesh[index], points[index]
        assert isinstance(got, list) and len(got) == len(want)
        assert all(_same_point(p, q) for p, q in zip(got, want))
    for index in (48, -49, np.int64(48)):
        with pytest.raises(IndexError):
            mesh[index]
    with pytest.raises(TypeError):
        mesh[1.0]
    with pytest.raises(ValueError):
        mesh.v[0, 0] = 0.0  # the arrays are read-only


@pytest.mark.parametrize("corrupt", [1.0 + 1e-6, np.nan])
def test_corrupted_mesh_amplitudes_fail_the_norm_check(monkeypatch, corrupt):
    real = ob.chi_amplitudes

    def corrupted(thetas, phis):
        amps = real(thetas, phis)
        amps[0, -1, 0, 1] *= corrupt
        return amps

    monkeypatch.setattr(ob, "chi_amplitudes", corrupted)
    with pytest.raises(ConvergenceError, match="unit norm"):
        mg.surface_mesh(3, 2)
    with pytest.raises(ConvergenceError, match="unit norm"):
        mg.surface_state(0.5, 0.5, +1, -1)


def test_audit_draw_budget_refuses_before_sharding(monkeypatch):
    # just over the budget the shard list is small: without the gate the
    # first shard runs and raises at once
    def shard(*args):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(mg, "_shard", shard)
    with pytest.raises(CapacityError):
        mg.region_audit(mg.AUDIT_MAX_DRAWS + 1, 1)
    with pytest.raises(CapacityError):
        mg.region_audit(1, 1, mixed_samples=mg.AUDIT_MAX_DRAWS)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mg.surface_mesh(2.9, 3),
        lambda: mg.surface_mesh(3, 2.0),
        lambda: mg.region_audit(20000.7, 3),
        lambda: mg.region_audit(20000, 3.5),
        lambda: mg.region_audit(20000, 3, mixed_samples=2.5),
        lambda: mg.theta_family_margin([0.0, 0.0, 0.0], 2.5),
        lambda: mg.RegionCheck.evaluate([0.0, 0.0, 0.0], theta_grid="720"),
        lambda: mg.region_audit(True, 3),
        lambda: mg.region_audit(100, True),
        lambda: mg.region_audit(100, 3, mixed_samples=True),
        lambda: mg.theta_family_margin([0.0, 0.0, 0.0], True),
    ],
    ids=[
        "theta-steps", "phi-steps", "samples", "seed", "mixed-samples", "grid", "check-grid-str",
        "samples-bool", "seed-bool", "mixed-samples-bool", "grid-bool",
    ],
)
def test_count_arguments_refuse_non_integers(call):
    # int() would truncate 2.9 to a 2-step mesh and 20000.7 to 20000 draws, and
    # bool is an int subclass that would read as a 1-sample audit or a 1-point grid
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_count_arguments_take_numpy_integers():
    assert len(mg.surface_mesh(np.int64(3), np.int32(2))) == 24
    report = mg.region_audit(np.int64(100), np.uint8(3), mixed_samples=np.int16(10))
    assert report == mg.region_audit(100, 3, mixed_samples=10)
    assert type(report.seed) is int
    assert mg.theta_family_margin([0.0, 0.0, 0.0], np.int64(8)) == mg.theta_family_margin([0.0, 0.0, 0.0], 8)
