"""Pair-constraint scenario graphs for four (and more) boxes.

A scenario fixes some pair expectations at +-1 and lets the remaining
"free" edges share one symbolic value -x with 0 < x < 1.  Two bounds on x
are computed: the tightest three-box membership relation over all box
triangles, and a spectral bound from the largest eigenvalue of the signed
objective whose expectation is affine in x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import extremal, group_core, region, states
from .errors import ConvergenceError, InfeasibleError, ValidationError, as_instance, as_items

PATTERN_TOL = 1e-9
BOUND_PREDICATE_TOL = 1e-12


@dataclass(frozen=True)
class ScenarioGraph:
    """Boxes 0..n-1 with fixed edges (pair -> +-1) and free edges (-x)."""

    n: int
    fixed: tuple[tuple[group_core.Pair, int], ...]
    free: tuple[group_core.Pair, ...]

    def __post_init__(self):
        n = group_core.validate_box_count(self.n)
        if n < 3:
            raise ValidationError("scenario graphs need at least 3 boxes")
        edges = as_items(self.fixed, tuple, "fixed edges")
        if any(len(edge) != 2 for edge in edges):
            raise ValidationError(f"fixed edges must be (pair, sign) pairs, got {self.fixed!r}")
        # the constraint rule: exactly +-1, never a float rounded to it
        fixed = tuple((c.pair, c.value) for c in (extremal.Constraint(*edge) for edge in edges))
        free = tuple(as_items(self.free, group_core.Pair, "free edges"))
        typed = [("fixed", p) for p, _ in fixed] + [("free", p) for p in free]
        for kind, pair in typed:
            if pair.y >= n:
                raise ValidationError(f"{kind} pair {pair} invalid for n = {n}")
        if not typed:
            raise ValidationError("scenario needs at least one fixed or free edge")
        if len({p for _, p in typed}) != len(typed):
            raise ValidationError("fixed and free edge sets must be disjoint and unique")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "free", free)

    @property
    def fixed_map(self) -> dict[group_core.Pair, int]:
        return dict(self.fixed)

    @classmethod
    def from_jsonable(cls, obj) -> "ScenarioGraph":
        try:
            n = obj["n"]
            fixed_raw = obj.get("fixed", {})
            free_raw = obj.get("free", [])
        except (KeyError, TypeError, IndexError) as exc:
            raise ValidationError(f"malformed scenario JSON: {exc}") from None
        unknown = [key for key in obj if key not in ("n", "fixed", "free")]
        if unknown:
            raise ValidationError(f'unknown scenario key "{unknown[0]}": a scenario has only "n", "fixed" and "free"')
        if not isinstance(fixed_raw, dict) or not isinstance(free_raw, list):
            raise ValidationError('scenario "fixed" must be an object and "free" a list')
        fixed = tuple(
            sorted(((group_core.Pair.parse(k), v) for k, v in fixed_raw.items()), key=lambda e: e[0])
        )
        free = tuple(sorted(group_core.Pair.parse(k) for k in free_raw))
        return cls(n=n, fixed=fixed, free=free)

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "fixed": {p.label(): v for p, v in self.fixed},
            "free": [p.label() for p in self.free],
        }


@dataclass(frozen=True)
class ScenarioBound:
    """Bounds on the free-edge value x (v_free = -x), plus attainment data.

    `triangle_bound` / `spectral_bound` are upper bounds on x (None when the
    scenario has no free edges); `feasible` is set only in the no-free-edge
    case; `attaining_state` is present when the top eigenstate reproduces
    the scenario pattern exactly.
    """

    n: int
    triangle_bound: float | None
    spectral_bound: float | None
    lambda_max: float
    improvement: bool | None
    feasible: bool | None
    pattern_attained: bool
    attaining_state: states.PureState | None
    attaining_v: np.ndarray | None

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "triangle_bound": None if self.triangle_bound is None else float(self.triangle_bound),
            "spectral_bound": None if self.spectral_bound is None else float(self.spectral_bound),
            "lambda_max": float(self.lambda_max),
            "improvement": self.improvement,
            "feasible": self.feasible,
            "pattern_attained": bool(self.pattern_attained),
            "attaining_state": (
                None if self.attaining_state is None else states.state_to_jsonable(self.attaining_state)
            ),
            "attaining_v": (
                None if self.attaining_v is None else [float(x) for x in self.attaining_v]
            ),
            "pairs": [p.label() for p in group_core.canonical_pairs(self.n)],
        }


def _pattern(graph: ScenarioGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's role in canonical_pairs(n) order: `signs` holds a fixed
    edge's +-1 (0 where the edge is not fixed) and `free` marks free edges."""
    pairs = group_core.canonical_pairs(graph.n)
    fixed, free = graph.fixed_map, set(graph.free)
    return (
        np.array([fixed.get(p, 0) for p in pairs], dtype=np.float64),
        np.array([p in free for p in pairs], dtype=bool),
    )


def _triangle_x_bound(slots) -> float:
    """Largest x in [0, 1] keeping the slot pattern inside the region.

    The membership lhs is convex in x, so the feasible set is an interval
    anchored at the fixed-only pattern.  With fixed slots at +-1 and free
    slots at -x, every pattern feasible at x = 0 ends that interval at 1 or
    at 1/2 (exactly one fixed +1 edge: the boson-forces-fermion limit), so
    the bound is the larger of the two inside the region.  The region must
    end there, which is checked at x + 1e-9.
    """

    def margin(x: float) -> float:
        v = [(-x if s is None else s) for s in slots]
        return region.check_sqrt(v)

    if margin(0.0) < -BOUND_PREDICATE_TOL:
        raise InfeasibleError(f"fixed edges alone violate the region: pattern {slots}")
    x = next((b for b in (1.0, 0.5) if margin(b) >= -BOUND_PREDICATE_TOL), None)
    if x is None or (x < 1.0 and margin(x + 1e-9) >= 0.0):
        raise ConvergenceError(f"pattern {slots}: the region does not end at x = 1 or 1/2")
    return x


def triangle_bounds(graph: ScenarioGraph) -> float:
    """Tightest upper bound on x implied by three-box relations alone.

    Every box triangle whose edges are all fixed-or-free contributes; fixed-
    only triangles are checked for consistency, triangles touching an
    unconstrained edge are skipped.  With no contributing triangle the bound
    is 1, since every v lies in [-1, 1].
    """
    if not as_instance(graph, ScenarioGraph, "scenario").free:
        raise ValidationError("scenario has no free edges; nothing to bound")
    signs, free = _pattern(graph)
    typed = free | (signs != 0)
    row = group_core.exchange_table(graph.n).row
    best = 1.0
    for boxes in itertools.combinations(range(graph.n), 3):
        p, q, r = boxes
        idx = [row[group_core.Pair(*e)] for e in ((p, q), (q, r), (p, r))]  # tri-canonical slots
        if not typed[idx].all():
            continue
        slots = [None if f else float(s) for s, f in zip(signs[idx], free[idx])]
        if not free[idx].any():
            if region.check_sqrt(slots) < -BOUND_PREDICATE_TOL:
                raise InfeasibleError(f"fixed triangle {boxes} violates the region")
            continue
        best = min(best, _triangle_x_bound(slots))
    return best


def spectral_bound(graph: ScenarioGraph) -> ScenarioBound:
    """Bound on x from the largest eigenvalue of the scenario objective.

    The objective weighs each fixed edge by its sign and each free edge by
    -1, so <M> = F + k x under the scenario pattern; lambda >= <M> gives
    x <= (lambda - F)/k, and with no free edges the scenario is feasible iff
    lambda reaches F.  The top eigenstate's v-vector is checked against the
    scenario pattern.
    """
    signs, free = _pattern(as_instance(graph, ScenarioGraph, "scenario"))
    top = extremal.max_expectation(extremal.Objective(graph.n, np.where(free, -1.0, signs)))
    lam, v = top.value, top.v
    n_fixed, n_free = len(graph.fixed), len(graph.free)
    if n_free:
        x_bound, feasible = (lam - n_fixed) / n_free, None
    else:
        x_bound, feasible = None, bool(lam >= n_fixed - PATTERN_TOL)
    # fixed pairs at their sign, free pairs at -x; untyped pairs are ignored
    target = np.where(free, -x_bound if n_free else 0.0, signs)
    typed = free | (signs != 0)
    attained = bool(np.all(np.abs(v - target)[typed] <= PATTERN_TOL)) and feasible is not False

    return ScenarioBound(
        n=graph.n,
        triangle_bound=None,
        spectral_bound=x_bound,
        lambda_max=lam,
        improvement=None,
        feasible=feasible,
        pattern_attained=attained,
        attaining_state=top.state if attained else None,
        attaining_v=v if attained else None,
    )


def scenario_report(graph: ScenarioGraph) -> ScenarioBound:
    """Both bounds plus a flag for whether the spectral bound strictly
    improves on the triangle-only analysis.  With free edges, fixed edges
    that no state meets raise InfeasibleError, which neither bound catches:
    the triangles test only fully typed triples, and spectral_bound relaxes
    the fixed edges to objective weights."""
    tri = triangle_bounds(graph) if as_instance(graph, ScenarioGraph, "scenario").free else None
    if graph.free:
        extremal.orbit_space(graph.n, [extremal.Constraint(p, v) for p, v in graph.fixed])
    spectral = spectral_bound(graph)
    improvement = None
    if tri is not None and spectral.spectral_bound is not None:
        improvement = bool(spectral.spectral_bound < tri - PATTERN_TOL)
    return replace(spectral, triangle_bound=tri, improvement=improvement)
