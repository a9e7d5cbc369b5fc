"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these out of the repository's default test run: they
start statmon subprocesses and take about a minute.  Working files go to
perfbench/out/selfcheck/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "out" / "selfcheck"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _nudge_csv_row(out: str) -> str:
    lines = out.splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[0] = repr(float(fields[0]) + 1e-6)
    lines[5] = ",".join(fields)
    return "".join(lines)


def _edit_json(key: str, change):
    def edit(out: str) -> str:
        payload = json.loads(out)
        payload[key] = change(payload[key])
        return json.dumps(payload)

    return edit


# (command kind, label, corruption of its stdout, exit code reported instead of the real one)
CORRUPTIONS = [
    ("surface", "CSV row nudged 1e-6 off the surface", _nudge_csv_row, None),
    ("extremal", "extremal value off by 1e-6", _edit_json("value", lambda v: v + 1e-6), None),
    ("audit", "audit reporting one violation", _edit_json("violations", lambda v: 1), None),
    ("audit", "wrong exit code", lambda out: out, 2),
    ("selftest", "selftest FAIL line", lambda out: out.replace("PASS", "FAIL", 1), None),
]


@pytest.fixture(scope="module")
def clean_pass():
    """One real, tiny command of each corrupted kind, run through the harness."""
    shutil.rmtree(WORK, ignore_errors=True)
    wanted = {kind for kind, *_ in CORRUPTIONS}
    commands = []
    for workload in workloads.WORKLOADS:
        for cmd in workloads.build(workload, 5, WORK / "inputs", "tiny"):
            if cmd["kind"] in wanted:
                wanted.discard(cmd["kind"])
                commands.append(cmd)
    runner = run.Runner(run.child_env(1), time.monotonic() + 120)
    pass_dir = WORK / "pass"
    _, records = run.run_pass(runner, commands, pass_dir, traced=False)
    return commands, records, pass_dir


def test_clean_outputs_pass(clean_pass):
    commands, records, _ = clean_pass
    assert [r["problems"] for r in records] == [[]] * len(commands)
    assert run.ok_ratio(records) == 1.0


def test_every_corruption_is_counted(clean_pass):
    commands, records, pass_dir = clean_pass
    by_kind = {cmd["kind"]: (cmd, rec) for cmd, rec in zip(commands, records)}
    bad_dir = WORK / "corrupted"
    bad_dir.mkdir(parents=True, exist_ok=True)
    bad_commands, bad_records = [], []
    for i, (kind, label, corrupt, exit_code) in enumerate(CORRUPTIONS):
        cmd, rec = by_kind[kind]
        bad = dict(cmd, id=f"{i}-{cmd['id']}")
        out = (pass_dir / f"{cmd['id']}.out").read_text(encoding="utf-8")
        (bad_dir / f"{bad['id']}.out").write_text(corrupt(out), encoding="utf-8")
        bad_commands.append(bad)
        bad_records.append({"rc": rec["rc"] if exit_code is None else exit_code, "label": label})
    run.check_pass(bad_commands, bad_records, bad_dir)
    missed = [r["label"] for r in bad_records if not r["problems"]]
    assert not missed, f"corruptions not detected: {missed}"
    mixed = records + bad_records
    assert run.ok_ratio(mixed) == pytest.approx(len(records) / len(mixed))


def test_generation_is_seeded():
    first = workloads.build("solve", 9, WORK / "seeded-a", "tiny")
    again = workloads.build("solve", 9, WORK / "seeded-b", "tiny")
    other = workloads.build("solve", 10, WORK / "seeded-c", "tiny")
    assert [c["expect"] for c in first] == [c["expect"] for c in again]
    assert [c["expect"] for c in first] != [c["expect"] for c in other]


def test_infeasible_sets_exit_2():
    # AB and BC symmetric forces AC symmetric, so AC antisymmetric is infeasible
    assert oracle.extremal_expectation(4, {"AD": 1.0}, {"AB": 1, "BC": 1, "AC": -1}) is None
    assert oracle.extremal_expectation(4, {"AD": 1.0}, {"AB": 1, "CD": -1}) is not None


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_refuses_without_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
