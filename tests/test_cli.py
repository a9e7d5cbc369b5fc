import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statmon
from statmon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_inside(capsys):
    code, out, _ = run(capsys, "check", "--v", "0.6,0.6,-0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["inside"] is True
    assert abs(payload["sqrt_margin"]) < 1e-9


def test_check_outside_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--v", "1,1,-1")
    assert code == 2
    payload = json.loads(out)
    assert payload["inside"] is False
    assert payload["sqrt_margin"] < 0


def test_check_custom_theta_grid(capsys):
    code, out, _ = run(capsys, "check", "--v", "0.2,-0.1,0.3", "--theta-grid", "90")
    assert code == 0
    payload = json.loads(out)
    assert payload["theta_margin"] >= 3 * payload["sqrt_margin"] - 1e-12


def test_check_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "check", "--v", "2,0,0")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "check", "--v", "1,2")
    assert code == 1


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "check", "--v", "0,0,0", "--bogus")
    assert code == 1


def test_state_named_and_v_round_trip(tmp_path, capsys):
    out_file = tmp_path / "state.json"
    code, _, _ = run(capsys, "state", "--name", "eq5", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["ordering"] == "paper3"

    code, out, _ = run(capsys, "v", "--state", str(out_file))
    assert code == 0
    v_payload = json.loads(out)
    assert v_payload["pairs"] == ["AB", "BC", "AC"]
    assert np.abs(np.array(v_payload["v"]) - [1.0, -0.5, -0.5]).max() < 1e-9


def test_v_named_state(capsys):
    code, out, _ = run(capsys, "v", "--state", "nontransitive_3_5")
    assert code == 0
    assert json.loads(out)["v"] == [0.6, 0.6, -0.6]


def test_state_chi_requires_parameters(capsys):
    code, _, err = run(capsys, "state", "--name", "chi")
    assert code == 1 and "chi" in err
    code, out, _ = run(
        capsys, "state", "--name", "chi", "--theta", "0", "--phi", "1.5707963267948966",
        "--s1", "+", "--s2", "+",
    )
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_surface_csv(tmp_path, capsys):
    mesh = tmp_path / "mesh.csv"
    code, out, _ = run(capsys, "surface", "--theta-steps", "4", "--phi-steps", "3",
                       "--out", str(mesh))
    assert code == 0 and out == ""
    lines = mesh.read_text().strip().split("\n")
    assert lines[0] == "v_AB,v_BC,v_AC,theta,phi,s1,s2"
    assert len(lines) == 1 + 4 * 3 * 4


def test_audit_json_and_exit(capsys):
    code, out, _ = run(capsys, "audit", "--samples", "2000", "--seed", "42", "--mixed")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"samples", "seed", "min_margin", "violations"}
    assert payload["samples"] == 2200
    assert payload["violations"] == 0


def test_audit_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "audit", "--samples", "3000", "--seed", "7")
    _, second, _ = run(capsys, "audit", "--samples", "3000", "--seed", "7")
    assert first == second


def test_extremal_constrained(capsys):
    code, out, _ = run(capsys, "extremal", "--fix", "AB=1", "--objective", "BC:-1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.5) < 1e-9
    assert np.abs(np.array(payload["v"]) - [1.0, -0.5, -0.5]).max() < 1e-9


def test_extremal_infeasible_exit(capsys):
    code, _, err = run(capsys, "extremal", "--fix", "AB=1,AB=-1", "--objective", "BC:1")
    assert code == 2
    assert "infeasible" in err


def test_extremal_infers_boxes(capsys):
    code, out, _ = run(capsys, "extremal", "--objective", "AB:1,CD:1")
    assert code == 0
    assert json.loads(out)["state"]["n"] == 4


def test_scenario_file(tmp_path, capsys):
    scenario = tmp_path / "fig.json"
    scenario.write_text(json.dumps(
        {"n": 4, "fixed": {"AB": 1, "AC": 1, "BC": 1}, "free": ["AD", "BD", "CD"]}
    ))
    code, out, _ = run(capsys, "scenario", "--file", str(scenario))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["triangle_bound"] - 0.5) < 1e-9
    assert abs(payload["spectral_bound"] - 1 / 3) < 1e-6
    assert payload["improvement"] is True


def test_scenario_missing_file(capsys):
    code, _, err = run(capsys, "scenario", "--file", "/nonexistent/x.json")
    assert code == 1


def test_twelve_significant_digit_output(capsys):
    _, out, _ = run(capsys, "check", "--v", "0.333333333333333,0,0")
    assert "0.333333333333," in out or "0.333333333333\n" in out.replace(",\n", "\n")


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    lines = [l for l in out.strip().split("\n") if l.startswith("PASS")]
    assert len(lines) >= 20


def test_closed_output_pipe_exits_quietly():
    # The CSV (~150 kB) overflows the pipe buffer, so the writer is still
    # writing when the reader closes its end after one line.
    env = dict(os.environ, PYTHONPATH=str(Path(statmon.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "statmon.cli", "surface", "--theta-steps", "32", "--phi-steps", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"v_AB,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert b"Traceback" not in err
