"""Membership tests for the achievable v-region, boundary states, audits.

The set of achievable v = (v_AB, v_BC, v_AC) is a double cone around the
(1, 1, 1) axis.  Two equivalent membership tests are provided: a family of
linear checks parametrized by an angle theta, and the closed sqrt form

    |w1.v| + sqrt((w2.v)^2 + (w3.v)^2) <= 1,

which is the theta-family's supremum and the authoritative test.  Their
single-v forms live in `region`, without numpy, and are rebound here; the
stacked forms below reuse region's arithmetic.  Boundary states
cos(phi)|+-> + sin(phi)|psi_theta^(+-)> realize every surface point; their
rows and CSV come from state3, and the mesh here holds them as arrays.
"""

from __future__ import annotations

import collections
import io
import itertools
import os
from collections.abc import Sequence

import numpy as np

from . import state3
from .errors import CapacityError, ValidationError, as_array, as_count, as_seed
from .region import (
    MEMBERSHIP_TOL,
    RegionCheck,
    check_sqrt,
    check_theta,
    frame_of_v,
    margin_of_w,
    theta_family_margin,
    theta_margin_of_v,
)

AUDIT_SHARD = 16384
AUDIT_BLOCK_ROWS = 4096  # shard rows per kernel pass: their 384 KiB planar copy stays in L2
AUDIT_MAX_DRAWS = 2**30  # 65536 shards; at about 0.3 us per draw per core, minutes of work
_SIGNS = (1, -1)  # s1/s2 values in state3.boundary_rows' order
# one state3.boundary_rows row, its margin left out
_ROW = np.dtype([("amplitudes", np.float64, 6), ("v", np.float64, 3)])


class SurfacePoint(collections.namedtuple("SurfacePoint", "theta phi s1 s2 state v")):
    """A boundary state with its parameters and measured v-vector: float
    angles theta and phi, int signs s1 and s2, the PureState and its v array."""

    __slots__ = ()


class SurfaceMesh(Sequence):
    """Boundary mesh rows in (theta, phi, s1, s2) order, held as arrays.

    `thetas`, `phis`, `amplitudes` (N, 6) and `v` (N, 3) are read-only.
    Indexing and iteration build a row's SurfacePoint, with its validated
    PureState, only when asked; slices give lists, as for a list of points.
    Every row is checked on construction, by state3.boundary_rows:
    amplitudes finite and of unit norm to state3.NORM_TOL, and v on the
    region surface to within 1e-9.
    """

    def __init__(self, thetas, phis):
        self.thetas = as_array(thetas, "thetas")
        self.phis = as_array(phis, "phis")
        count = 4 * self.thetas.size * self.phis.size
        rows = state3.boundary_rows(self.thetas.tolist(), self.phis.tolist())
        rows = np.fromiter(((amplitudes, v) for amplitudes, v, _ in rows), _ROW, count)
        for arr in (self.thetas, self.phis, rows):
            arr.setflags(write=False)
        self.amplitudes, self.v = rows["amplitudes"], rows["v"]  # read-only views of the rows

    def __len__(self) -> int:
        return self.v.shape[0]

    def __getitem__(self, index):
        rows = range(len(self))[index]  # list semantics: numpy ints, negatives, IndexError
        if isinstance(rows, range):
            return [self[i] for i in rows]
        from .states import PureState  # here, not at the top: the audit needs no states
        t, p, i1, i2 = np.unravel_index(rows, (len(self.thetas), len(self.phis), 2, 2))
        return SurfacePoint(
            float(self.thetas[t]),
            float(self.phis[p]),
            _SIGNS[i1],
            _SIGNS[i2],
            PureState(3, self.amplitudes[rows]),
            self.v[rows],
        )


def surface_state(theta: float, phi: float, s1, s2) -> SurfacePoint:
    """Construct the boundary state for the given parameters and verify that
    its v-vector sits on the region surface to within 1e-9."""
    theta = state3.validate_angle(theta, 2.0 * np.pi, "theta")  # so a refusal names the angle, not the mesh's list
    phi = state3.validate_angle(phi, np.pi / 2.0, "phi", inclusive=True)
    row = 2 * state3.sign_index(s1) + state3.sign_index(s2)
    return SurfaceMesh([theta], [phi])[row]


def surface_mesh(theta_steps: int, phi_steps: int) -> SurfaceMesh:
    """Boundary mesh over theta in [0, pi) x phi in [0, pi/2] x both sign
    choices; rows are ordered (theta, phi, s1, s2).

    Distinct parameters may repeat the same v (every theta collapses to the
    two apexes at phi = 0); duplicates are emitted as-is.  Meshes above
    state3.MESH_MAX_ROWS rows are refused before anything is allocated.
    """
    return SurfaceMesh(*state3.mesh_axes(theta_steps, phi_steps))


def write_mesh_csv(points: SurfaceMesh, stream) -> None:
    """The mesh as state3.write_boundary_csv writes it: columns
    v_AB,v_BC,v_AC,theta,phi,s1,s2 at 12 significant digits, in blocks.
    The v-rows become Python floats one block at a time, so memory beyond
    the mesh's arrays stays bounded."""
    if not all(hasattr(points, name) for name in ("thetas", "phis", "v")) or not hasattr(stream, "write"):
        raise ValidationError(f"expected a mesh and a writable stream, got {points!r:.80} and {stream!r:.80}")
    block = state3.CSV_BLOCK_ROWS
    v_rows = itertools.chain.from_iterable(
        points.v[start : start + block].tolist() for start in range(0, len(points), block)
    )
    state3.write_boundary_csv(points.thetas.tolist(), points.phis.tolist(), v_rows, stream)


def mesh_csv_text(points) -> str:
    buf = io.StringIO()
    write_mesh_csv(points, buf)
    return buf.getvalue()


class AuditReport(collections.namedtuple("AuditReport", "samples seed min_margin violations")):
    """Draw count, seed, smallest membership margin (float) and violation count of a region audit."""

    __slots__ = ()

    def to_jsonable(self) -> dict:
        return {
            "samples": int(self.samples),
            "seed": int(self.seed),
            "min_margin": float(self.min_margin),
            "violations": int(self.violations),
        }


def _margins_of_v(V: np.ndarray) -> np.ndarray:
    """check_sqrt's margin of one v-vector or of each row of a stack, by
    check_sqrt's arithmetic on the columns: each row gets its bits."""
    return margin_of_w(*frame_of_v(*np.moveaxis(V, -1, 0)), np.sqrt)


def _theta_margins(V: np.ndarray, grid: int) -> np.ndarray:
    """theta_family_margin of each row of an (N, 3) stack of v-vectors."""
    return np.array([theta_margin_of_v(*v, grid) for v in np.asarray(V).tolist()], dtype=np.float64)


def _v_of_parts(parts: np.ndarray) -> np.ndarray:
    """v-vectors, shape (3, count), of the three-box draws whose real and
    imaginary parts are `parts`, shape (2, count, 6), as
    state3.gaussian_parts gives them.

    v is taken on the raw draw z as <z|Pi_XY|z> / <z|z>, so no normalized
    copy is made. Rows are worked through in blocks of AUDIT_BLOCK_ROWS by
    elementwise operations only, so a row gets the same bits alone as in
    any batch.
    """
    count = parts.shape[1]
    v = np.empty((3, count))
    # one contiguous row per part and word, in one buffer for every block: a
    # fresh copy per block cost the pool threads about 15x the page faults
    block = np.empty((2, 6, min(count, AUDIT_BLOCK_ROWS)))
    for start in range(0, count, AUDIT_BLOCK_ROWS):
        rows = min(count - start, AUDIT_BLOCK_ROWS)
        cols = block[:, :, :rows]
        np.copyto(cols, parts[:, start:start + rows].transpose(0, 2, 1))
        # per pair and part, the sum of the swapped words' products: the two
        # parts' sums add to half of <z|Pi_XY|z>
        sums = np.empty((3, 2, rows))
        for pair_sum, ((k, m), *swapped) in zip(sums, state3.EXCHANGE_PAIRS3):
            np.multiply(cols[:, k], cols[:, m], out=pair_sum)
            for k, m in swapped:
                pair_sum += cols[:, k] * cols[:, m]
        np.square(cols, out=cols)
        cols[0] += cols[1]
        norm = cols[0, 0] + cols[0, 1]
        for word in range(2, 6):
            norm += cols[0, word]
        out = v[:, start:start + rows]
        np.add(sums[:, 0], sums[:, 1], out=out)
        out *= np.divide(2.0, norm, out=norm)
    return v


def _shard_v(seed: int, mixed: bool, index: int, count: int) -> np.ndarray:
    """v-vectors, shape (3, count), of one shard's random pure states or,
    when `mixed`, of its two-component mixtures."""
    rng = np.random.default_rng([seed, int(mixed), index])
    v = _v_of_parts(state3.gaussian_parts(3, count, rng))
    if mixed:
        b = _v_of_parts(state3.gaussian_parts(3, count, rng))
        weight = rng.uniform(0.0, 1.0, size=count)
        # v is linear in the density matrix: a two-component mixture's is
        # the weighted average of the components'
        v = weight * v + (1.0 - weight) * b
    return v


def _shard(seed: int, mixed: bool, index: int, count: int) -> tuple[float, int]:
    """Minimum margin and violation count of one shard."""
    margins = _margins_of_v(_shard_v(seed, mixed, index, count).T)
    return float(margins.min()), int((margins < -MEMBERSHIP_TOL).sum())


def default_thread_count() -> int:
    """The CPUs this process may run on (its affinity set, which taskset and
    cpusets limit) where the OS reports it, else the CPU count: more threads
    than cores only hold more shard arrays at once."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def region_audit(samples: int, seed: int, mixed_samples: int = 0) -> AuditReport:
    """Sample random three-box pure states (and optionally two-component
    mixtures) and check every v-vector against the sqrt-form membership test.

    Work is split into fixed-size shards with per-shard RNG streams derived
    from (seed, kind, shard index), so results are independent of the thread
    count; `samples` in the report counts pure plus mixed draws.
    """
    samples, mixed_samples = as_count(samples, "samples"), as_count(mixed_samples, "mixed samples")
    seed = as_seed(seed)
    if samples < 1 or mixed_samples < 0:
        raise ValidationError("audit needs at least one pure sample")
    if samples + mixed_samples > AUDIT_MAX_DRAWS:
        raise CapacityError(
            f"audit of {samples} + {mixed_samples} draws is over the budget of {AUDIT_MAX_DRAWS}"
        )
    jobs = [
        (mixed, index, min(AUDIT_SHARD, total - start))
        for mixed, total in ((False, samples), (True, mixed_samples))
        for index, start in enumerate(range(0, total, AUDIT_SHARD))
    ]
    import concurrent.futures  # here, not at the top: it imports logging, which only audits need
    with concurrent.futures.ThreadPoolExecutor(max_workers=default_thread_count()) as pool:
        results = list(pool.map(lambda job: _shard(seed, *job), jobs))

    return AuditReport(
        samples=samples + mixed_samples,
        seed=seed,
        min_margin=min(r[0] for r in results),
        violations=sum(r[1] for r in results),
    )
