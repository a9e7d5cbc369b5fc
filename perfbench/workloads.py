"""Seeded command lists for the three workloads.

Every command is a dict: `id`, `kind` (the oracle check to apply), `argv`
(arguments after `python -m statmon.cli`) and `expect` (what the oracle
needs).  The same workload seed always gives the same commands and input
files.  Only values change with the seed; the shape of each list (sizes,
the feasible/infeasible split, constraint patterns) is fixed, so the work
done, and hence the timing, does not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

import oracle

# Full sizes are the benchmark; tiny sizes only exercise the harness itself.
SIZES = {
    "full": {
        "mesh": (128, 64),
        "audit": (2, 2_000_000, 8, 50_000),
        "solve_n4": (6, 2, 2),
        "solve_n5": True,
    },
    "tiny": {
        "mesh": (8, 4),
        "audit": (1, 20_000, 2, 2_000),
        "solve_n4": (2, 1, 1),
        "solve_n5": False,
    },
}

WORKLOADS = ("mesh", "audit", "solve")
N5_OBJECTIVE_SEED = 5
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


def build(workload: str, seed: int, input_dir: Path, size: str = "full") -> list[dict]:
    """The command list of one workload; input files go to `input_dir`, which
    must be given relative to the directory the commands run in."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    input_dir.mkdir(parents=True, exist_ok=True)
    commands = {"mesh": _mesh, "audit": _audit, "solve": _solve}[workload](rng, input_dir, SIZES[size])
    for i, cmd in enumerate(commands):
        cmd["id"] = f"{workload}-{i:02d}-{cmd['kind']}"
    return commands


def _mesh(rng, input_dir: Path, sizes) -> list[dict]:
    theta_steps, phi_steps = sizes["mesh"]
    commands = [
        {
            "kind": "surface",
            "argv": ["surface", "--theta-steps", str(theta_steps), "--phi-steps", str(phi_steps)],
            "expect": {"theta_steps": theta_steps, "phi_steps": phi_steps},
        }
    ]
    inside, outside = [], []
    while len(inside) < 3 or len(outside) < 3:
        v = [round(float(x), 9) for x in rng.uniform(-1.0, 1.0, size=3)]
        m = float(oracle.margin(v))
        if m >= 1e-6 and len(inside) < 3:
            inside.append(v)
        elif m <= -1e-6 and len(outside) < 3:
            outside.append(v)
    for v in inside + outside:
        commands.append(
            {"kind": "check", "argv": ["check", "--v=" + ",".join(map(repr, v))], "expect": {"v": v}}
        )
    for k in range(4):
        point = {
            "theta": _round_down(rng.uniform(0.0, 2.0 * math.pi)),
            "phi": _round_down(rng.uniform(0.0, math.pi / 2.0)),
            "s1": int(rng.choice([-1, 1])),
            "s2": int(rng.choice([-1, 1])),
        }
        if k < 2:
            argv = ["state", "--name", "chi"] + [
                f"--{key}={point[key]!r}" if key in ("theta", "phi") else f"--{key}={'+' if point[key] > 0 else '-'}"
                for key in ("theta", "phi", "s1", "s2")
            ]
            commands.append({"kind": "state", "argv": argv, "expect": point})
        else:
            # one stored state in each basis order the reader accepts
            ordering = "paper3" if k == 2 else "lex"
            amps = oracle.chi_amplitudes(point["theta"], point["phi"], point["s1"], point["s2"], ordering)
            path = input_dir / f"chi{k}_{ordering}.json"
            payload = {"n": 3, "ordering": ordering, "amplitudes": [[float(a), 0.0] for a in amps]}
            path.write_text(json.dumps(payload), encoding="utf-8")
            commands.append({"kind": "v", "argv": ["v", "--state", path.as_posix()], "expect": point})
    return commands


def _round_down(x: float) -> float:
    """Nine decimals, never above x, so an angle stays inside its half-open range."""
    return math.floor(float(x) * 1e9) / 1e9


def _audit(rng, input_dir: Path, sizes) -> list[dict]:
    n_large, large, n_small, small = sizes["audit"]
    per_large = n_small // n_large
    samples = []
    for _ in range(n_large):
        samples += [large] + [small] * per_large
    commands = []
    for n in samples:
        seed = int(rng.integers(0, 2**31))
        commands.append(
            {
                "kind": "audit",
                "argv": ["audit", "--samples", str(n), "--seed", str(seed), "--mixed"],
                "expect": {"samples": n, "seed": seed},
            }
        )
    return commands


def _weights(rng, n: int) -> dict[str, float]:
    return {
        oracle.pair_label(p): float(w)
        for p, w in zip(oracle.pairs(n), np.round(rng.uniform(-1.0, 1.0, size=n * (n - 1) // 2), 6))
        if w != 0.0
    }


def _extremal(n: int, weights: dict[str, float], fixed: dict[str, int]) -> dict:
    argv = ["extremal", "--objective=" + ",".join(f"{k}:{w!r}" for k, w in weights.items())]
    if fixed:
        argv.append("--fix=" + ",".join(f"{k}={s}" for k, s in fixed.items()))
    return {"kind": "extremal", "argv": argv, "expect": {"n": n, "weights": weights, "fixed": fixed}}


def _constraint_sets(rng, count_feasible: int, count_infeasible: int) -> list[dict[str, int]]:
    """Three-pair n = 4 constraint sets with random signs, split by whether
    their joint eigenspace is empty."""
    feasible, infeasible = [], []
    all_pairs = oracle.pairs(4)
    while len(feasible) < count_feasible or len(infeasible) < count_infeasible:
        chosen = rng.choice(len(all_pairs), size=3, replace=False)
        fixed = {oracle.pair_label(all_pairs[i]): int(rng.choice([-1, 1])) for i in sorted(chosen)}
        empty = oracle.constraint_kernel(4, fixed).shape[1] == 0
        bucket, limit = (infeasible, count_infeasible) if empty else (feasible, count_feasible)
        if len(bucket) < limit:
            bucket.append(fixed)
    return [s for pair in itertools.zip_longest(feasible, infeasible) for s in pair if s]


def _scenario(n: int, input_dir: Path) -> dict:
    """Boson triangle ABC with AD, BD and CD free."""
    fixed = {"AB": 1, "AC": 1, "BC": 1}
    free = ["AD", "BD", "CD"]
    path = input_dir / f"scenario_n{n}.json"
    path.write_text(json.dumps({"n": n, "fixed": fixed, "free": free}), encoding="utf-8")
    return {
        "kind": "scenario",
        "argv": ["scenario", "--file", path.as_posix()],
        "expect": {"n": n, "fixed": fixed, "free": free},
    }


def _solve(rng, input_dir: Path, sizes) -> list[dict]:
    n_random, n_feasible, n_infeasible = sizes["solve_n4"]
    commands = [_extremal(4, _weights(rng, 4), {}) for _ in range(n_random)]
    for fixed in _constraint_sets(rng, n_feasible, n_infeasible):
        commands.append(_extremal(4, _weights(rng, 4), fixed))
    commands.append(_scenario(4, input_dir))
    if sizes["solve_n5"]:
        # The Jacobi solver's sweep count depends on the weights (72k to 103k
        # rotations over a few draws), so the heaviest command keeps one
        # objective for every seed and its time does not vary with the seed.
        commands.append(_extremal(5, _weights(np.random.default_rng(N5_OBJECTIVE_SEED), 5), {}))
        # two disjoint pairs: always feasible, with a 30-dimensional kernel
        a, b, c, d = (int(x) for x in rng.permutation(5)[:4])
        fixed = {
            oracle.pair_label(p): int(rng.choice([-1, 1])) for p in ((a, b), (c, d))
        }
        commands.append(_extremal(5, _weights(rng, 5), fixed))
        commands.append(_scenario(5, input_dir))
    commands.append({"kind": "selftest", "argv": ["selftest"], "expect": {}})
    return commands
