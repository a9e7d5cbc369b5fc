"""statmon benchmark: the CLI run as users run it, with every output checked.

    python3 perfbench/run.py --workload {mesh,audit,solve} --seed N --seconds S --trace {0,1}

Run from the root of a statmon checkout.  Each command is a fresh
`python -m statmon.cli ...` subprocess with `src` on PYTHONPATH, started by
this one process after the previous command has exited (a closed loop with
one client).  The workload's command list is run back to back,
again and again, until S seconds have passed; each pass's outputs are then
checked against the numpy oracle in `oracle.py`.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate; a traced pass runs each
command under `tracer.py`, and the last line reports per-layer metrics
computed from its spans.  Everything a run produces (the generated argv
list as `commands.sh`, input files, outputs, spans, failures, the
environment record and the result) is kept in `perfbench/out/<run>/`, so a
failed command can be rerun by hand from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"
SETUP_RUNS = 5
DEADLINE_S = 160  # a run must end within 180 s; later commands are killed past this
SETUP_CODE = "import statmon.cli as c; c.build_parser()"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_max_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

# Per-layer statistics of each traced span: number of calls, self time
# (duration minus the union of child spans) and busy time (summed duration).
SPAN_STATS = {
    "group_core.exchange_operator": ("calls",),
    "group_core.PermutationOperator.matrix": ("calls", "self_s"),
    "states.PureState.__init__": ("calls", "self_s"),
    "states.random_amplitudes": ("busy_s",),
    "states.MixedState.__init__": ("calls", "self_s"),
    "observables.chi_state": ("calls", "self_s"),
    "observables.v_vector": ("calls", "self_s"),
    "observables.expectation": ("calls", "self_s"),
    "eigh.symmetric_spectrum": ("calls", "self_s"),
    "eigh.hermitian_min_eigenvalue": ("calls", "self_s"),
    "monogamy.surface_state": ("calls", "self_s"),
    "monogamy.check_sqrt": ("calls", "self_s"),
    "monogamy.theta_family_margin": ("calls", "self_s"),
    "monogamy.write_mesh_csv": ("self_s",),
    "monogamy.region_audit": ("self_s",),
    "extremal.max_expectation": ("calls", "self_s"),
    "extremal.constrained_extremal": ("calls", "self_s"),
    "extremal.joint_eigenspace_basis": ("self_s",),
    "extremal.Objective.matrix": ("self_s",),
    "npartite.triangle_bounds": ("self_s",),
    "npartite.spectral_bound": ("self_s",),
    "cli.main": ("self_s",),
    "selftest.run_selftest": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "busy_s": "s"}
# Counters the tracer's hooks add up (see tracer.HOOKS), and their units.
COUNTER_UNITS = {
    "group_core.PermutationOperator.matrix.bytes": "B",
    "states.random_amplitudes.rows": "count",
    "eigh.symmetric_spectrum.dim_max": "count",
    "eigh.symmetric_spectrum.dim3_sum": "count",
    "monogamy.write_mesh_csv.bytes": "B",
    "monogamy.region_audit.draws": "count",
}


def _metric_prefix(span: str) -> str:
    return span.removesuffix(".__init__")


PER_LAYER = {
    **{f"{_metric_prefix(span)}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS.items() for stat in stats},
    **COUNTER_UNITS,
    "group_core.exchange_operator.hit_ratio": "1",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH="src", STATMON_THREADS=str(threads))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def environment(threads: int) -> dict:
    """Enough to tell whether two results come from the same machine and build."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            key: {k: build[key].get(k) for k in ("name", "version", "openblas configuration")}
            for key in ("blas", "lapack")
        }
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "STATMON_THREADS": threads,
        "git_commit": commit,
        "git_dirty": dirty,
    }


class Runner:
    """Starts children one at a time and records latency, exit code and peak RSS."""

    def __init__(self, env: dict[str, str], deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            latency = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"latency": latency, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def run_pass(runner: Runner, commands: list[dict], pass_dir: Path, traced: bool) -> tuple[float, list[dict]]:
    """Run the list back to back; returns the pass wall time and one record per command."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    records = []
    start = time.monotonic()
    for cmd in commands:
        base = pass_dir / cmd["id"]
        if traced:
            spawn = time.monotonic()
            argv = [sys.executable, "perfbench/tracer.py", f"{base}.npz", cmd["id"], repr(spawn), "--", *cmd["argv"]]
        else:
            argv = [sys.executable, "-m", "statmon.cli", *cmd["argv"]]
        records.append(runner.run(argv, Path(f"{base}.out"), Path(f"{base}.err")))
    wall = time.monotonic() - start
    check_pass(commands, records, pass_dir)
    return wall, records


def check_pass(commands: list[dict], records: list[dict], pass_dir: Path) -> None:
    """Give each record the oracle's problems with its command's exit code and output."""
    for cmd, rec in zip(commands, records):
        out = (pass_dir / f"{cmd['id']}.out").read_bytes()
        rec["id"] = cmd["id"]
        rec["problems"] = oracle.check(cmd, rec["rc"], out.decode("utf-8", errors="replace"))
        rec["output_bytes"] = len(out)


def ok_ratio(records: list[dict]) -> float:
    """Share of commands whose exit code and output pass the oracle."""
    return sum(not r["problems"] for r in records) / len(records)


def self_times(start, end, parent, thread) -> np.ndarray:
    """Duration of each span minus the part of it covered by its children.

    Children on the parent's own thread run one after another inside it, so
    their durations add up; children on other threads may overlap, so a
    parent that has any gets the length of the union of its children."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
    np.add.at(covered, parent[same], dur[same])
    for p in np.unique(parent[has_parent & ~same]):
        kids = np.nonzero(parent == p)[0]
        total, reach = 0.0, start[p]
        for s, e in sorted(zip(np.maximum(start[kids], start[p]), np.minimum(end[kids], end[p]))):
            if e > reach:
                total += e - max(s, reach)
                reach = e
        covered[p] = total
    return dur - covered


def layer_metrics(pass_dir: Path, records: list[dict], traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    calls = dict.fromkeys(tracer.SPAN_NAMES, 0)
    self_s = dict.fromkeys(tracer.SPAN_NAMES, 0.0)
    busy_s = dict.fromkeys(tracer.SPAN_NAMES, 0.0)
    counters = dict.fromkeys(COUNTER_UNITS, 0.0)
    hits = misses = 0
    setup = inside_main = 0.0
    for rec in records:
        if not (pass_dir / f"{rec['id']}.npz").exists():
            continue  # killed before it could write spans; already counted as failed
        with np.load(pass_dir / f"{rec['id']}.npz") as spans:
            names = [str(x) for x in spans["names"]]
            meta = json.loads(str(spans["meta"]))
            own = self_times(spans["start"], spans["end"], spans["parent"], spans["thread"])
            dur = spans["end"] - spans["start"]
            for i, name in enumerate(names):
                mask = spans["name"] == i
                calls[name] += int(mask.sum())
                self_s[name] += float(own[mask].sum())
                busy_s[name] += float(dur[mask].sum())
            root = (spans["parent"] < 0) & (spans["name"] == names.index("cli.main"))
            inside_main += float(dur[root].sum())
        setup += meta["imported"] - meta["spawn"]
        hits += meta["exchange_operator_hits"]
        misses += meta["exchange_operator_misses"]
        for key, value in meta["counters"].items():
            counters[key] = max(counters[key], value) if key.endswith("dim_max") else counters[key] + value
    stats = {"calls": calls, "self_s": self_s, "busy_s": busy_s}
    metrics = {
        f"{_metric_prefix(span)}.{stat}": stats[stat][span] for span, wanted in SPAN_STATS.items() for stat in wanted
    }
    metrics.update(counters)
    metrics["group_core.exchange_operator.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cli.output_bytes"] = sum(rec["output_bytes"] for rec in records)
    # Every span nests under cli.main, so without overlapping spans this is
    # wall - setup - (sum of all self times).  Pool threads make self times
    # add up to more than the wall time they cover, so the root span is used.
    metrics["trace.unattributed_s"] = traced_wall - setup - inside_main
    return metrics


def measure_setup(runner: Runner, run_dir: Path) -> list[float]:
    """Fresh interpreters importing statmon.cli and building its parser; the
    first run, which may compile bytecode, is not counted."""
    argv = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_RUNS + 1):
        rec = runner.run(argv, run_dir / "setup.out", run_dir / "setup.err")
        if rec["rc"] != 0:
            raise SystemExit(f"perfbench: importing statmon.cli failed; see {run_dir / 'setup.err'}")
        if i:
            times.append(rec["latency"])
    return times


def replay_line(cmd: dict, threads: int) -> str:
    return f"STATMON_THREADS={threads} PYTHONPATH=src python3 -m statmon.cli {shlex.join(cmd['argv'])}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, to test the harness itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "statmon" / "cli.py").is_file():
        print(f"perfbench: no statmon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    started = time.monotonic()
    threads = len(os.sched_getaffinity(0))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    commands = workloads.build(args.workload, args.seed, run_dir / "inputs", "tiny" if args.tiny else "full")
    (run_dir / "commands.json").write_text(json.dumps(commands, indent=1), encoding="utf-8")
    (run_dir / "commands.sh").write_text(
        "# run from the checkout root\n" + "".join(replay_line(c, threads) + "\n" for c in commands), encoding="utf-8"
    )
    env_record = environment(threads)
    runner = Runner(child_env(threads), started + DEADLINE_S)
    setup = measure_setup(runner, run_dir)

    plain: list[tuple[float, list[dict]]] = []
    traced: list[tuple[float, list[dict], dict]] = []
    measure_start = time.monotonic()
    while not plain or time.monotonic() - measure_start < args.seconds:
        plain.append(run_pass(runner, commands, run_dir / "pass", traced=False))
        if args.trace:
            wall, records = run_pass(runner, commands, run_dir / "traced", traced=True)
            traced.append((wall, records, layer_metrics(run_dir / "traced", records, wall)))

    records = [r for _, recs in plain for r in recs] + [r for _, recs, _ in traced for r in recs]
    failures = [
        {"id": r["id"], "exit_code": r["rc"], "problems": r["problems"]} for r in records if r["problems"]
    ]
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for _, _, m in traced) for name in PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(w for w, _, _ in traced) - statistics.median(
            w for w, _ in plain
        )
        units = PER_LAYER
    else:
        plain_records = [r for _, recs in plain for r in recs]
        # Each command's latency is its median over the passes, so one pass
        # slowed by load from outside the benchmark moves the result little.
        per_command = [statistics.median(recs[i]["latency"] for _, recs in plain) for i in range(len(commands))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_command),
            "cmd_p50_s": statistics.median(per_command),
            "cmd_max_s": max(per_command),
            "peak_rss_mb": max(r["rss_mb"] for r in plain_records),
            "ok_ratio": ok_ratio(plain_records),
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "passes": len(plain),
                "pass_walls": [w for w, _ in plain],
                "traced_pass_walls": [w for w, _, _ in traced],
                "latencies": {
                    cmd["id"]: [round(recs[i]["latency"], 4) for _, recs in plain] for i, cmd in enumerate(commands)
                },
                "environment": env_record,
                "failures": failures,
                "result": result,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    for failure in failures[:10]:
        print(f"FAILED {failure['id']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
