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
import io
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import observables, states
from .errors import CapacityError, ConvergenceError, ValidationError

MEMBERSHIP_TOL = 1e-9
BOUNDARY_TOL = 1e-9
THETA_GRID_DEFAULT = 720
THETA_GRID_MAX = 2**20  # a few float arrays of this length: tens of MB
MESH_MAX_ROWS = 2**20  # 120 MiB of arrays at the cap (amplitudes 96, v 24); about 180 MiB peak
CSV_BLOCK_ROWS = 2**14  # rows formatted per write: about 1.3 MB of CSV text
AUDIT_SHARD = 16384
AUDIT_MAX_DRAWS = 2**30  # 65536 shards; at about 0.25 us per draw per core, minutes of work
_SIGNS = (1, -1)  # s1/s2 values along the sign axes of observables.chi_amplitudes


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


class SurfaceMesh(Sequence):
    """Boundary mesh rows in (theta, phi, s1, s2) order, held as arrays.

    `thetas`, `phis`, `amplitudes` (N, 6) and `v` (N, 3) are read-only.
    Indexing and iteration build a row's SurfacePoint, with its validated
    PureState, only when asked; slices give lists, as for a list of points.
    Every row is checked on construction: amplitudes finite and of unit norm
    to states.NORM_TOL, and v on the region surface to within 1e-9.
    """

    def __init__(self, thetas, phis):
        self.thetas = np.array(thetas, dtype=np.float64)
        self.phis = np.array(phis, dtype=np.float64)
        amps = observables.chi_amplitudes(self.thetas, self.phis).reshape(-1, 6)
        norm_error = np.abs(np.linalg.norm(amps, axis=1) - 1.0)
        if not (norm_error <= states.NORM_TOL).all():  # NaN compares false: non-finite rows fail
            worst = norm_error.max()
            raise ConvergenceError(f"surface amplitudes miss unit norm by {worst:.2e}; solver bug")
        V = observables.exchange_rows(amps, 3)
        worst = np.abs(_margins_of_v(V)).max()
        if worst > BOUNDARY_TOL:
            raise ConvergenceError(f"surface state missed the boundary by {worst:.2e}; solver bug")
        self.amplitudes, self.v = amps, V
        for arr in (self.thetas, self.phis, amps, V):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.v.shape[0]

    def __getitem__(self, index):
        rows = range(len(self))[index]  # list semantics: numpy ints, negatives, IndexError
        if isinstance(rows, range):
            return [self[i] for i in rows]
        t, p, i1, i2 = np.unravel_index(rows, (len(self.thetas), len(self.phis), 2, 2))
        return SurfacePoint(
            float(self.thetas[t]),
            float(self.phis[p]),
            _SIGNS[i1],
            _SIGNS[i2],
            states.PureState(3, self.amplitudes[rows]),
            self.v[rows],
        )


def surface_state(theta: float, phi: float, s1, s2) -> SurfacePoint:
    """Construct the boundary state for the given parameters and verify that
    its v-vector sits on the region surface to within 1e-9."""
    row = 2 * observables.sign_index(s1) + observables.sign_index(s2)
    return SurfaceMesh([theta], [phi])[row]


def surface_mesh(theta_steps: int, phi_steps: int) -> SurfaceMesh:
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
    return SurfaceMesh(thetas, phis)


def write_mesh_csv(points: SurfaceMesh, stream) -> None:
    """CSV columns: v_AB,v_BC,v_AC,theta,phi,s1,s2 (12 significant digits).

    Only `stream.write` is called, once for the header and once per block
    of CSV_BLOCK_ROWS rows, so the text in memory stays bounded.
    """
    stream.write("v_AB,v_BC,v_AC,theta,phi,s1,s2\n")
    signs = ("+,+", "+,-", "-,+", "-,-")
    params = itertools.product(points.thetas.tolist(), points.phis.tolist(), signs)
    for start in range(0, len(points), CSV_BLOCK_ROWS):
        block = points.v[start : start + CSV_BLOCK_ROWS].tolist()
        # block comes first so that zip stops without consuming a parameter row
        stream.write("".join(
            "%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % (a, b, c, theta, phi, s)
            for (a, b, c), (theta, phi, s) in zip(block, params)
        ))


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


def _pure_shard(seed: int, index: int, count: int) -> tuple[float, int]:
    rng = np.random.default_rng([seed, 0, index])
    amps = states.random_amplitudes(3, count, rng)
    margins = _margins_of_v(observables.exchange_rows(amps, 3))
    return float(margins.min()), int((margins < -MEMBERSHIP_TOL).sum())

def _mixed_shard(seed: int, index: int, count: int) -> tuple[float, int]:
    rng = np.random.default_rng([seed, 1, index])
    a = states.random_amplitudes(3, count, rng)
    b = states.random_amplitudes(3, count, rng)
    weight = rng.uniform(0.0, 1.0, size=count)[:, None]
    # v is linear in the density matrix, so a two-component mixture's v is
    # the weighted average of the components' v-vectors
    V = weight * observables.exchange_rows(a, 3) + (1.0 - weight) * observables.exchange_rows(b, 3)
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
    mixed_samples: int = 0,
    threads: int | None = None,
) -> AuditReport:
    """Sample random three-box pure states (and optionally two-component
    mixtures) and check every v-vector against the sqrt-form membership test.

    Work is split into fixed-size shards with per-shard RNG streams derived
    from (seed, kind, shard index), so results are independent of the thread
    count; `samples` in the report counts pure plus mixed draws.
    """
    samples, mixed_samples = int(samples), int(mixed_samples)
    if samples < 1 or mixed_samples < 0:
        raise ValidationError("audit needs at least one pure sample")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if samples + mixed_samples > AUDIT_MAX_DRAWS:
        raise CapacityError(
            f"audit of {samples} + {mixed_samples} draws is over the budget of {AUDIT_MAX_DRAWS}"
        )
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
                pool.map(lambda j: j[0](seed, j[1], j[2]), jobs)
            )
    else:
        results = [kind(seed, index, count) for kind, index, count in jobs]

    min_margin = min(r[0] for r in results)
    violations = sum(r[1] for r in results)
    return AuditReport(
        samples=samples + mixed_samples,
        seed=int(seed),
        min_margin=min_margin,
        violations=violations,
    )
