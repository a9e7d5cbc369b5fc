"""Membership tests for the achievable v-region, boundary states, audits.

The set of achievable v = (v_AB, v_BC, v_AC) is a double cone around the
(1, 1, 1) axis.  Two equivalent membership tests are provided: a family of
linear checks parametrized by an angle theta, and the closed sqrt form

    |w1.v| + sqrt((w2.v)^2 + (w3.v)^2) <= 1,

which is the theta-family's supremum and the authoritative test.  Boundary
states cos(phi)|+-> + sin(phi)|psi_theta^(+-)> realize every surface point.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import observables, states
from .errors import CapacityError, ConvergenceError, ValidationError

MEMBERSHIP_TOL = 1e-9
BOUNDARY_TOL = 1e-9
THETA_GRID_DEFAULT = 720
THETA_GRID_MAX = 2**20  # a few float arrays of this length: tens of MB
MESH_MAX_ROWS = 2**20  # ~0.65 kB per SurfacePoint: about 0.7 GB at the cap
AUDIT_SHARD = 16384


def _validate_v(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.shape != (3,):
        raise ValidationError(f"expected 3 pair expectations, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.abs(arr).max() > 1.0 + MEMBERSHIP_TOL:
        raise ValidationError(f"entries of v must lie in [-1, 1], got {arr.tolist()}")
    return arr


def _theta_lhs(v: np.ndarray, theta):
    return abs(v[0] + v[1] + v[2]) + np.abs(
        (2.0 * v[0] - v[1] - v[2]) * np.cos(theta) + np.sqrt(3.0) * (v[1] - v[2]) * np.sin(theta)
    )


def check_theta(v, theta: float) -> float:
    """Left-hand side |v_AB+v_BC+v_AC| + |(2v_AB-v_BC-v_AC)cos(theta)
    + sqrt(3)(v_BC-v_AC)sin(theta)|; membership requires <= 3."""
    return float(_theta_lhs(_validate_v(v), float(theta)))


def theta_family_margin(v, grid: int = THETA_GRID_DEFAULT) -> float:
    """min over a theta grid of (3 - lhs); approximate with O(dtheta^2) error."""
    v = _validate_v(v)
    if grid < 1:
        raise ValidationError("theta grid must have at least one point")
    if grid > THETA_GRID_MAX:
        raise CapacityError(f"theta grid supports at most {THETA_GRID_MAX} points, got {grid}")
    return float(3.0 - _theta_lhs(v, np.arange(grid) * (2.0 * np.pi / grid)).max())


def check_sqrt(v) -> float:
    """Margin 1 - [|w1.v| + sqrt((w2.v)^2 + (w3.v)^2)]; >= 0 inside."""
    return float(_margins_of_v(_validate_v(v)))


@dataclass(frozen=True)
class RegionCheck:
    """Result of both membership forms for one v-vector."""

    v: np.ndarray
    theta_margin: float
    sqrt_margin: float
    inside: bool

    @classmethod
    def evaluate(cls, v, theta_grid: int = THETA_GRID_DEFAULT) -> "RegionCheck":
        v = _validate_v(v)
        sqrt_margin = check_sqrt(v)
        return cls(
            v=v,
            theta_margin=theta_family_margin(v, theta_grid),
            sqrt_margin=sqrt_margin,
            inside=bool(sqrt_margin >= -MEMBERSHIP_TOL),
        )

    def to_jsonable(self) -> dict:
        return {
            "v": [float(x) for x in self.v],
            "theta_margin": float(self.theta_margin),
            "sqrt_margin": float(self.sqrt_margin),
            "inside": bool(self.inside),
        }


@dataclass(frozen=True)
class SurfacePoint:
    """A boundary state with its parameters and measured v-vector."""

    theta: float
    phi: float
    s1: int
    s2: int
    state: states.PureState
    v: np.ndarray


def _boundary_points(thetas, phis) -> list[SurfacePoint]:
    """SurfacePoints for the (theta, phi, s1, s2) grid in that row order, each
    verified to sit on the region surface to within 1e-9."""
    amps = observables.chi_amplitudes(thetas, phis).reshape(-1, 6)
    V = observables.exchange_rows(amps, 3)
    worst = np.abs(_margins_of_v(V)).max()
    if worst > BOUNDARY_TOL:
        raise ConvergenceError(f"surface state missed the boundary by {worst:.2e}; solver bug")
    params = itertools.product(thetas, phis, (1, -1), (1, -1))
    return [
        SurfacePoint(float(theta), float(phi), s1, s2, states.PureState(3, a), v)
        for (theta, phi, s1, s2), a, v in zip(params, amps, V)
    ]


def surface_state(theta: float, phi: float, s1, s2) -> SurfacePoint:
    """Construct the boundary state for the given parameters and verify that
    its v-vector sits on the region surface to within 1e-9."""
    row = 2 * observables.sign_index(s1) + observables.sign_index(s2)
    return _boundary_points([theta], [phi])[row]


def surface_mesh(theta_steps: int, phi_steps: int) -> list[SurfacePoint]:
    """Boundary mesh over theta in [0, pi) x phi in [0, pi/2] x both sign
    choices; rows are ordered (theta, phi, s1, s2).

    Distinct parameters may repeat the same v (every theta collapses to the
    two apexes at phi = 0); duplicates are emitted as-is.  Meshes above
    MESH_MAX_ROWS rows are refused before anything is allocated.
    """
    theta_steps, phi_steps = int(theta_steps), int(phi_steps)
    if theta_steps < 2 or phi_steps < 2:
        raise ValidationError("mesh needs at least 2 steps per axis")
    if 4 * theta_steps * phi_steps > MESH_MAX_ROWS:
        raise CapacityError(f"mesh has 4 x {theta_steps} x {phi_steps} rows, over {MESH_MAX_ROWS}")
    thetas = np.arange(theta_steps) * (np.pi / theta_steps)
    phis = np.linspace(0.0, np.pi / 2.0, phi_steps)
    return _boundary_points(thetas, phis)


def write_mesh_csv(points, stream) -> None:
    """CSV columns: v_AB,v_BC,v_AC,theta,phi,s1,s2 (12 significant digits)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["v_AB", "v_BC", "v_AC", "theta", "phi", "s1", "s2"])
    for p in points:
        writer.writerow(
            [f"{x:.12g}" for x in (*p.v, p.theta, p.phi)]
            + [("+" if p.s1 > 0 else "-"), ("+" if p.s2 > 0 else "-")]
        )


def mesh_csv_text(points) -> str:
    buf = io.StringIO()
    write_mesh_csv(points, buf)
    return buf.getvalue()


@dataclass(frozen=True)
class AuditReport:
    samples: int
    seed: int
    min_margin: float
    violations: int

    def to_jsonable(self) -> dict:
        return {
            "samples": int(self.samples),
            "seed": int(self.seed),
            "min_margin": float(self.min_margin),
            "violations": int(self.violations),
        }


def _margins_of_v(V: np.ndarray) -> np.ndarray:
    """check_sqrt's margin of one v-vector or of each row of a stack."""
    w1, w2, w3 = observables.w_frame().vectors()
    return 1.0 - (np.abs(V @ w1) + np.hypot(V @ w2, V @ w3))


def _pure_shard(seed: int, index: int, count: int, n: int) -> tuple[float, int]:
    rng = np.random.default_rng([seed, 0, index])
    amps = states.random_amplitudes(n, count, rng)
    margins = _margins_of_v(observables.exchange_rows(amps, n))
    return float(margins.min()), int((margins < -MEMBERSHIP_TOL).sum())

def _mixed_shard(seed: int, index: int, count: int, n: int) -> tuple[float, int]:
    rng = np.random.default_rng([seed, 1, index])
    a = states.random_amplitudes(n, count, rng)
    b = states.random_amplitudes(n, count, rng)
    weight = rng.uniform(0.0, 1.0, size=count)[:, None]
    # v is linear in the density matrix, so a two-component mixture's v is
    # the weighted average of the components' v-vectors
    V = weight * observables.exchange_rows(a, n) + (1.0 - weight) * observables.exchange_rows(b, n)
    margins = _margins_of_v(V)
    return float(margins.min()), int((margins < -MEMBERSHIP_TOL).sum())


def default_thread_count() -> int:
    env = os.environ.get("STATMON_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ValidationError(f"STATMON_THREADS must be an integer, got {env!r}")
        if threads < 1:
            raise ValidationError("STATMON_THREADS must be >= 1")
        return threads
    return os.cpu_count() or 1


def region_audit(
    samples: int,
    seed: int,
    n: int = 3,
    mixed_samples: int = 0,
    threads: int | None = None,
) -> AuditReport:
    """Sample random pure states (and optionally two-component mixtures) and
    check every v-vector against the sqrt-form membership test.

    Work is split into fixed-size shards with per-shard RNG streams derived
    from (seed, kind, shard index), so results are independent of the thread
    count; `samples` in the report counts pure plus mixed draws.
    """
    samples, mixed_samples = int(samples), int(mixed_samples)
    if samples < 1 or mixed_samples < 0:
        raise ValidationError("audit needs at least one pure sample")
    if n != 3:
        raise ValidationError("the membership audit is defined for n = 3")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if threads is None:
        threads = default_thread_count()

    jobs = []
    for kind, total in ((_pure_shard, samples), (_mixed_shard, mixed_samples)):
        index = 0
        while total > 0:
            count = min(AUDIT_SHARD, total)
            jobs.append((kind, index, count))
            total -= count
            index += 1

    if threads > 1 and len(jobs) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda j: j[0](seed, j[1], j[2], n), jobs)
            )
    else:
        results = [kind(seed, index, count, n) for kind, index, count in jobs]

    min_margin = min(r[0] for r in results)
    violations = sum(r[1] for r in results)
    return AuditReport(
        samples=samples + mixed_samples,
        seed=int(seed),
        min_margin=min_margin,
        violations=violations,
    )
