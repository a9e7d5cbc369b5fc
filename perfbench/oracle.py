"""Independent checks of statmon CLI outputs, written with numpy alone.

Nothing here imports statmon: the exchange operators, the double-cone
surface and the eigenvalue bounds are rebuilt from their definitions, so a
defect in the program cannot hide in a shared helper.  Values are compared
to TOL rather than byte for byte, so a change that only moves roundoff in
the 12 printed digits still passes when it is correct.

Each `check_<kind>(expect, rc, out)` returns a list of problems; an empty
list means the command's exit code and output are right.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from functools import lru_cache

import numpy as np

TOL = 1e-9
CLUSTER_GAP = 1e-8  # the program's eigenvalue-cluster width, part of its output contract
THETA_GRID = 720  # the `check` command's default theta grid
LETTERS = "ABCDEFG"
PAPER3 = ((0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0))
MESH_HEADER = "v_AB,v_BC,v_AC,theta,phi,s1,s2"

# Frame of the three-box region: v lies inside iff |w1.v| + |(w2.v, w3.v)| <= 1.
FRAME = np.array(
    [[1 / 3, 1 / 3, 1 / 3], [2 / 3, -1 / 3, -1 / 3], [0.0, 1 / math.sqrt(3.0), -1 / math.sqrt(3.0)]]
)


def pairs(n: int) -> list[tuple[int, int]]:
    """Pair order of v-vectors and weights: (AB, BC, AC) for n = 3, else lexicographic."""
    if n == 3:
        return [(0, 1), (1, 2), (0, 2)]
    return list(itertools.combinations(range(n), 2))


def pair_label(pair: tuple[int, int]) -> str:
    return LETTERS[min(pair)] + LETTERS[max(pair)]


def parse_pair(label: str) -> tuple[int, int]:
    a, b = sorted(LETTERS.index(ch) for ch in label)
    return (a, b)


def words(n: int, ordering: str) -> tuple[tuple[int, ...], ...]:
    if ordering == "paper3":
        if n != 3:
            raise ValueError("paper3 ordering exists only for n = 3")
        return PAPER3
    if ordering == "lex":
        return tuple(itertools.permutations(range(n)))
    raise ValueError(f"unknown ordering {ordering!r}")


def canonical_ordering(n: int) -> str:
    return "paper3" if n == 3 else "lex"


@lru_cache(maxsize=None)
def exchange_matrix(n: int, pair: tuple[int, int], ordering: str) -> np.ndarray:
    """Swap the labels of both boxes of `pair` in every word: the basis vector
    of word w goes to the basis vector of the relabelled word."""
    x, y = pair
    basis = words(n, ordering)
    index = {w: i for i, w in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)))
    for i, w in enumerate(basis):
        swapped = tuple(y if b == x else x if b == y else b for b in w)
        M[index[swapped], i] = 1.0
    M.setflags(write=False)
    return M


def objective_matrix(n: int, weights: dict[str, float], ordering: str = "lex") -> np.ndarray:
    M = np.zeros((math.factorial(n),) * 2)
    for label, c in weights.items():
        M += c * exchange_matrix(n, parse_pair(label), ordering)
    return M


def expectations(amplitudes: np.ndarray, n: int, ordering: str) -> np.ndarray:
    """v over the canonical pairs of n for a unit amplitude vector."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    return np.array(
        [np.vdot(psi, exchange_matrix(n, p, ordering) @ psi).real for p in pairs(n)]
    )


def margin(v) -> np.ndarray:
    """Closed-form distance inside the double cone: >= 0 inside, 0 on the surface.
    Works on one v or on rows of v."""
    u = np.asarray(v, dtype=np.float64) @ FRAME.T
    return 1.0 - (np.abs(u[..., 0]) + np.hypot(u[..., 1], u[..., 2]))


def theta_grid_margin(v, grid: int = THETA_GRID) -> float:
    """min over theta of 3 - (|v_AB+v_BC+v_AC| + |(2v_AB-v_BC-v_AC)cos + sqrt3(v_BC-v_AC)sin|)."""
    a, b, c = (float(x) for x in v)
    thetas = np.arange(grid) * (2.0 * np.pi / grid)
    radial = np.abs((2 * a - b - c) * np.cos(thetas) + math.sqrt(3.0) * (b - c) * np.sin(thetas))
    return float(3.0 - (abs(a + b + c) + radial.max()))


def surface_v(theta, phi, s1, s2) -> np.ndarray:
    """The surface point with frame coordinates (s1 cos^2 phi, s2 sin^2 phi (cos theta, sin theta)).

    Every state cos(phi)|s1> + sin(phi)|psi>, with |s1> the (anti)symmetric
    state and psi any s2-eigenvector of W_theta, has this v."""
    theta, phi, s1, s2 = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in (theta, phi, s1, s2)))
    radial = s2 * np.sin(phi) ** 2
    u = np.stack([s1 * np.cos(phi) ** 2, radial * np.cos(theta), radial * np.sin(theta)], axis=-1)
    return u @ np.linalg.inv(FRAME).T


def chi_amplitudes(theta: float, phi: float, s1: int, s2: int, ordering: str) -> np.ndarray:
    """A boundary state for the given surface parameters, built from the oracle's own matrices."""
    basis = words(3, ordering)
    P = [exchange_matrix(3, p, ordering) for p in pairs(3)]
    sym = np.full(6, 1.0 / math.sqrt(6.0))
    sign = np.array([_parity(w) for w in basis]) / math.sqrt(6.0)
    W2 = (2.0 * P[0] - P[1] - P[2]) / 3.0
    W3 = (P[1] - P[2]) / math.sqrt(3.0)
    values, vectors = np.linalg.eigh(W2 * math.cos(theta) + W3 * math.sin(theta))
    psi = vectors[:, int(np.argmin(np.abs(values - s2)))]
    return math.cos(phi) * (sym if s1 > 0 else sign) + math.sin(phi) * psi


def _parity(word) -> int:
    w, sign = list(word), 1
    for i in range(len(w)):
        while w[i] != i:
            j = w[i]
            w[i], w[j] = w[j], w[i]
            sign = -sign
    return sign


def constraint_kernel(n: int, fixed: dict[str, int]) -> np.ndarray:
    """Orthonormal basis (columns) of the joint eigenspace Pi_e psi = s_e psi."""
    dim = math.factorial(n)
    if not fixed:
        return np.eye(dim)
    stack = np.vstack(
        [np.eye(dim) - s * exchange_matrix(n, parse_pair(label), "lex") for label, s in fixed.items()]
    )
    _, sing, vt = np.linalg.svd(stack)
    rank = int((sing > 1e-8).sum())
    return vt[rank:].T


def extremal_expectation(n: int, weights: dict[str, float], fixed: dict[str, int]) -> dict | None:
    """Top eigenvalue of the objective on the constraint kernel and its
    multiplicity; None when the kernel is empty (the program must exit 2)."""
    basis = constraint_kernel(n, fixed)
    if basis.shape[1] == 0:
        return None
    values = np.linalg.eigvalsh(basis.T @ objective_matrix(n, weights) @ basis)
    top = float(values[-1])
    return {"value": top, "degeneracy": int((top - values <= CLUSTER_GAP).sum())}


def scenario_expectation(n: int, fixed: dict[str, int], free: list[str]) -> dict:
    weights = {label: float(s) for label, s in fixed.items()}
    weights.update({label: -1.0 for label in free})
    lam = float(np.linalg.eigvalsh(objective_matrix(n, weights))[-1])
    return {"lambda_max": lam, "spectral_bound": (lam - len(fixed)) / len(free)}


# ---------------------------------------------------------------- checks


def _json(out: str, problems: list[str]):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _close(problems: list[str], what: str, got, want, tol: float = TOL) -> None:
    got_arr = np.asarray(got, dtype=np.float64)
    want_arr = np.asarray(want, dtype=np.float64)
    if got_arr.shape != want_arr.shape:
        problems.append(f"{what}: shape {got_arr.shape} != {want_arr.shape}")
        return
    err = float(np.abs(got_arr - want_arr).max(initial=0.0))
    if not err <= tol:
        problems.append(f"{what}: off by {err:.3e} (tolerance {tol:g})")


def _exit(problems: list[str], rc: int, want: int) -> None:
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")


def _state_amplitudes(payload: dict, n: int, problems: list[str]) -> tuple[np.ndarray, str] | None:
    ordering = payload.get("ordering")
    if payload.get("n") != n or ordering != canonical_ordering(n):
        problems.append(f"state header n={payload.get('n')} ordering={ordering!r}")
        return None
    amps = np.array([complex(re_, im) for re_, im in payload["amplitudes"]])
    if amps.shape != (math.factorial(n),):
        problems.append(f"state has {amps.shape[0]} amplitudes, expected {math.factorial(n)}")
        return None
    _close(problems, "state norm", np.linalg.norm(amps), 1.0)
    return amps, ordering


def check_surface(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    T, P = expect["theta_steps"], expect["phi_steps"]
    lines = out.splitlines()
    if not lines or lines[0] != MESH_HEADER:
        return problems + [f"CSV header {lines[:1]!r}, expected {MESH_HEADER!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 4 * T * P or any(len(r) != 7 for r in rows):
        return problems + [f"CSV has {len(rows)} rows, expected {4 * T * P} rows of 7 fields"]
    try:
        values = np.array([[float(x) for x in r[:5]] for r in rows])
    except ValueError as exc:
        return problems + [f"CSV field is not a number: {exc}"]
    sign_of = {"+": 1, "-": -1}
    signs = np.array([[sign_of.get(r[5], 0), sign_of.get(r[6], 0)] for r in rows])
    theta = np.repeat(np.arange(T) * (np.pi / T), 4 * P)
    phi = np.tile(np.repeat(np.linspace(0.0, np.pi / 2.0, P), 4), T)
    s1 = np.tile([1, 1, -1, -1], T * P)
    s2 = np.tile([1, -1, 1, -1], T * P)
    _close(problems, "theta grid", values[:, 3], theta)
    _close(problems, "phi grid", values[:, 4], phi)
    if not (np.array_equal(signs[:, 0], s1) and np.array_equal(signs[:, 1], s2)):
        problems.append("sign columns are not +/- in the (s1, s2) = ++, +-, -+, -- order")
    _close(problems, "surface margin", margin(values[:, :3]), np.zeros(len(rows)))
    _close(problems, "surface v", values[:, :3], surface_v(theta, phi, s1, s2))
    return problems


def check_check(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    v = np.array(expect["v"])
    m = float(margin(v))
    _exit(problems, rc, 0 if m >= -TOL else 2)
    payload = _json(out, problems)
    if payload is None:
        return problems
    _close(problems, "echoed v", payload["v"], v)
    _close(problems, "sqrt_margin", payload["sqrt_margin"], m)
    _close(problems, "theta_margin", payload["theta_margin"], theta_grid_margin(v))
    if payload["inside"] is not (m >= -TOL):
        problems.append(f"inside={payload['inside']} but the margin is {m:.3e}")
    return problems


def check_state(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    payload = _json(out, problems)
    if payload is None:
        return problems
    parsed = _state_amplitudes(payload, 3, problems)
    if parsed is not None:
        v = expectations(parsed[0], 3, parsed[1])
        _close(problems, "chi margin", margin(v), 0.0)
        _close(problems, "chi v", v, surface_v(expect["theta"], expect["phi"], expect["s1"], expect["s2"]))
    return problems


def check_v(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    payload = _json(out, problems)
    if payload is None:
        return problems
    if payload.get("n") != 3 or payload.get("pairs") != ["AB", "BC", "AC"]:
        problems.append(f"v header n={payload.get('n')} pairs={payload.get('pairs')}")
    _close(problems, "v margin", margin(payload["v"]), 0.0)
    _close(problems, "v", payload["v"], surface_v(expect["theta"], expect["phi"], expect["s1"], expect["s2"]))
    return problems


def check_audit(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    payload = _json(out, problems)
    if payload is None:
        return problems
    n = expect["samples"]
    if payload.get("samples") != n + n // 10:
        problems.append(f"samples={payload.get('samples')}, expected {n + n // 10}")
    if payload.get("seed") != expect["seed"]:
        problems.append(f"seed={payload.get('seed')}, expected {expect['seed']}")
    if payload.get("violations") != 0:
        problems.append(f"violations={payload.get('violations')}, expected 0")
    if not 0.0 <= payload.get("min_margin", -1.0) <= 1.0:
        problems.append(f"min_margin={payload.get('min_margin')} outside [0, 1]")
    return problems


def check_extremal(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    n, weights, fixed = expect["n"], expect["weights"], expect["fixed"]
    want = extremal_expectation(n, weights, fixed)
    if want is None:
        _exit(problems, rc, 2)
        if out.strip():
            problems.append("an infeasible problem printed output")
        return problems
    _exit(problems, rc, 0)
    payload = _json(out, problems)
    if payload is None:
        return problems
    _close(problems, "value", payload["value"], want["value"])
    if payload.get("degeneracy") != want["degeneracy"]:
        problems.append(f"degeneracy={payload.get('degeneracy')}, expected {want['degeneracy']}")
    parsed = _state_amplitudes(payload["state"], n, problems)
    if parsed is None:
        return problems
    amps, ordering = parsed
    M = objective_matrix(n, weights, ordering)
    _close(problems, "state reproduces value", np.vdot(amps, M @ amps).real, want["value"])
    v = expectations(amps, n, ordering)
    _close(problems, "v of state", payload["v"], v)
    for label, s in fixed.items():
        _close(problems, f"constraint v_{label}", v[pairs(n).index(parse_pair(label))], s)
    return problems


def check_scenario(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    payload = _json(out, problems)
    if payload is None:
        return problems
    n, fixed, free = expect["n"], expect["fixed"], expect["free"]
    want = scenario_expectation(n, fixed, free)
    _close(problems, "lambda_max", payload["lambda_max"], want["lambda_max"])
    _close(problems, "spectral_bound", payload["spectral_bound"], want["spectral_bound"])
    if payload.get("pairs") != [pair_label(p) for p in pairs(n)]:
        problems.append(f"pairs={payload.get('pairs')}")
    x = payload["triangle_bound"]
    slots = {parse_pair(k): float(s) for k, s in fixed.items()}
    slots.update({parse_pair(k): -x for k in free})
    margins = [
        float(margin([slots[(p, q)], slots[(q, r)], slots[(p, r)]]))
        for p, q, r in itertools.combinations(range(n), 3)
        if all(e in slots for e in ((p, q), (q, r), (p, r)))
        and any(parse_pair(k) in ((p, q), (q, r), (p, r)) for k in free)
    ]
    if not margins or min(margins) < -TOL:
        problems.append(f"triangle pattern at x={x} leaves the region: margins {margins}")
    elif abs(x - 1.0) > TOL and min(abs(m) for m in margins) > TOL:
        problems.append(f"triangle bound {x} is neither 1 nor on the surface: margins {margins}")
    if payload.get("improvement") is not (payload["spectral_bound"] < x - TOL):
        problems.append(f"improvement={payload.get('improvement')} disagrees with the bounds")
    if payload.get("pattern_attained"):
        v = np.array(payload["attaining_v"])
        index = {p: i for i, p in enumerate(pairs(n))}
        pattern = {**{parse_pair(k): float(s) for k, s in fixed.items()},
                   **{parse_pair(k): -payload["spectral_bound"] for k in free}}
        _close(problems, "attaining pattern", [v[index[e]] for e in pattern], list(pattern.values()))
    return problems


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_selftest(expect: dict, rc: int, out: str) -> list[str]:
    problems: list[str] = []
    _exit(problems, rc, 0)
    lines = out.strip().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    if fails:
        problems.append(f"selftest reports {fails[0]!r}")
    match = _SUMMARY.match(lines[-1]) if lines else None
    passes = sum(line.startswith("PASS") for line in lines)
    if match is None or match[1] != match[2] or int(match[1]) != passes or passes == 0:
        problems.append(f"selftest summary {lines[-1:]!r} does not read k/k with {passes} PASS lines")
    return problems


CHECKS = {
    "surface": check_surface,
    "check": check_check,
    "state": check_state,
    "v": check_v,
    "audit": check_audit,
    "extremal": check_extremal,
    "scenario": check_scenario,
    "selftest": check_selftest,
}


def check(command: dict, rc: int, out: str) -> list[str]:
    """Problems with one command's exit code and standard output."""
    try:
        return CHECKS[command["kind"]](command["expect"], rc, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
