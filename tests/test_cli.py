import argparse
import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

import statmon
from statmon import group_core as gc
from statmon import state3
from statmon import states as st
from statmon.cli import build_parser, main
from statmon.observables import exchange_rows
from statmon.selftest import CHECKS


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
    code, _, err = run(capsys, "state", "--name", "chi", "--theta", "1", "--s1", "+", "--s2", "+")
    assert code == 1
    assert err.endswith("statmon: error: chi needs --theta, --phi, --s1 and --s2; missing --phi\n")
    code, _, err = run(capsys, "state", "--name", "chi", "--theta", "1", "--phi", "0.5", "--s1", "2", "--s2", "+")
    assert code == 1
    assert err.endswith("statmon: error: argument --s1: sign must be + or -, got '2'\n")
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


def test_surface_csv_matches_golden(capsys):
    code, out, _ = run(capsys, "surface", "--theta-steps", "4", "--phi-steps", "3")
    assert code == 0
    golden = (Path(__file__).parent / "golden" / "surface_4x3.csv").read_text().split("\n")
    lines = out.split("\n")
    assert lines[0] == golden[0]
    assert len(lines) == len(golden) == 1 + 4 * 3 * 4 + 1
    for got, want in zip(lines[1:-1], golden[1:-1]):
        got, want = got.split(","), want.split(",")
        assert got[3:] == want[3:]  # theta, phi, s1, s2 as exact text
        assert np.abs(np.array(got[:3], dtype=float) - np.array(want[:3], dtype=float)).max() <= 1e-12


def test_surface_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsys, monkeypatch):
    # 5-row blocks split the 84-row mesh into 17 writes, the last one partial
    monkeypatch.setattr(state3, "CSV_BLOCK_ROWS", 5)
    path = tmp_path / "mesh.csv"
    code, out, _ = run(capsys, "surface", "--theta-steps", "7", "--phi-steps", "3")
    assert code == 0
    code, quiet, _ = run(capsys, "surface", "--theta-steps", "7", "--phi-steps", "3", "--out", str(path))
    assert code == 0 and quiet == ""
    assert path.read_bytes() == out.encode()
    assert out.count("\n") == 1 + 7 * 3 * 4


# Weights this large once failed an absolute 1e-9 eigenvalue check (or, for a
# constrained n = 4 problem at 1e4, an absolute symmetry check) with valid input.
@pytest.mark.parametrize(
    "argv, unit_argv, scale",
    [
        (["--objective", "AB:1e10"], ["--objective", "AB:1"], 1e10),
        (["--fix", "AB=1", "--objective", "BC:1e10"], ["--fix", "AB=1", "--objective", "BC:1"], 1e10),
        (["--objective", "AB:1e200,BC:1e200"], ["--objective", "AB:1,BC:1"], 1e200),
        (
            ["--fix", "AB=1,CD=-1", "--objective", "BC:1e4,AD:-3e4"],
            ["--fix", "AB=1,CD=-1", "--objective", "BC:1,AD:-3"],
            1e4,
        ),
    ],
)
def test_extremal_value_scales_with_large_weights(capsys, argv, unit_argv, scale):
    code, out, _ = run(capsys, "extremal", *argv)
    assert code == 0
    _, unit_out, _ = run(capsys, "extremal", *unit_argv)
    expected = json.loads(unit_out)["value"] * scale
    assert abs(json.loads(out)["value"] - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize("weights", ["AB:1e308,BC:1e308", "AB:6e299,BC:6e299"])
def test_extremal_refuses_weight_sum_over_budget(capsys, weights):
    code, out, err = run(capsys, "extremal", "--objective", weights)
    assert code == 1 and out == ""
    assert "statmon: error: objective weights must have absolute sum" in err


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


@pytest.mark.parametrize(
    "n, fixed, objective, code, value, degeneracy",
    [
        (6, "", "AB:1", 0, 1.0, 360),
        (6, "AB=1", "AC:-1", 0, 0.5, None),  # the paper's bound at six boxes
        (7, "AB=1,BC=1,CD=1", "DE:-1", 0, 0.25, None),
        (7, "", "AB:1", 1, None, None),  # constrained space of dimension 7! = 5040
        (6, "AB=1,AB=-1", "AC:1", 2, None, None),
    ],
)
def test_extremal_at_six_and_seven_boxes_meets_the_pair_law(capsys, n, fixed, objective, code, value, degeneracy):
    # the README's pair law: a boson block of a boxes holds v between one of
    # its boxes and an outside box at or above -1/a
    argv = ["extremal", "--n", str(n), "--objective", objective] + (["--fix", fixed] if fixed else [])
    got, out, err = run(capsys, *argv)
    assert got == code, err
    if code == 1:
        assert "5040" in err and "720" in err
    if code != 0:
        return
    payload = json.loads(out)
    assert abs(payload["value"] - value) <= 1e-9
    assert degeneracy is None or payload["degeneracy"] == degeneracy
    pairs = gc.canonical_pairs(n)
    for label, sign in (entry.split("=") for entry in filter(None, fixed.split(","))):
        assert abs(payload["v"][pairs.index(gc.Pair.parse(label))] - int(sign)) <= 1e-9


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


def test_scenario_with_no_typed_triangle_has_triangle_bound_one(tmp_path, capsys):
    # no box triangle has all three edges fixed or free: every v lies in
    # [-1, 1], so the three-box bound is x <= 1
    scenario = tmp_path / "sparse.json"
    scenario.write_text(json.dumps({"n": 4, "fixed": {"AB": 1}, "free": ["CD"]}))
    code, out, _ = run(capsys, "scenario", "--file", str(scenario))
    assert code == 0
    payload = json.loads(out)
    assert payload["triangle_bound"] == 1
    assert abs(payload["spectral_bound"] - 1.0) < 1e-9
    assert payload["improvement"] is False


def test_scenario_with_fixed_edges_no_state_meets_exits_2(tmp_path, capsys):
    scenario = tmp_path / "clash.json"
    scenario.write_text(json.dumps({"n": 4, "fixed": {"AB": 1, "BC": -1}, "free": ["CD"]}))
    code, out, err = run(capsys, "scenario", "--file", str(scenario))
    assert code == 2
    assert out == ""
    assert err.startswith("statmon: infeasible:")


def test_scenario_with_no_free_edges_that_no_state_meets_exits_2(tmp_path, capsys):
    # with no free edges the report itself is the answer: printed, then exit 2
    # as `check` exits for a v outside the region
    scenario = tmp_path / "clash.json"
    scenario.write_text(json.dumps({"n": 4, "fixed": {"AB": 1, "BC": -1}}))
    code, out, _ = run(capsys, "scenario", "--file", str(scenario))
    assert code == 2
    assert json.loads(out)["feasible"] is False
    scenario.write_text(json.dumps({"n": 4, "fixed": {"AB": 1, "BC": 1}}))
    code, out, _ = run(capsys, "scenario", "--file", str(scenario))
    assert code == 0 and json.loads(out)["feasible"] is True


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
    assert len(lines) == len(CHECKS)


def test_the_process_entry_prints_and_exits_as_main(capsys, monkeypatch):
    # `python -m statmon.cli` runs main() and then freezes the collector before
    # the interpreter's shutdown; neither the bytes nor the exit code may move
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps at, here and in the child
    env = dict(os.environ, PYTHONPATH=str(Path(statmon.__file__).parents[1]))
    for argv, want in (
        (["check", "--v", "0.6,0.6,-0.6"], 0), (["check", "--v", "1,1,-1"], 2), (["check", "--v", "2,0,0"], 1),
        (["--help"], 0),
    ):
        proc = subprocess.run([sys.executable, "-m", "statmon.cli", *argv], capture_output=True, env=env, timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits from argparse
            code = exc.code
        assert (proc.returncode, code) == (want, want), argv
        assert proc.stdout == capsys.readouterr().out.encode(), argv


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["statmon"]
    module_name, _, attr = target.partition(":")
    assert module_name == "statmon.cli"  # the module `python -m statmon.cli` runs
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))
    # the one statement under `if __name__ == "__main__":` calls that same function
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({attr}())"]


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


def _fresh_python(code: str):
    """The JSON last line that `code` prints in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(statmon.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Each command's layers after `import statmon.cli` and `main(argv)`: extremal,
# npartite and selftest sit in sys.modules from the start (perfbench's tracer
# looks them up there) but run only when a command touches them; numpy is
# imported only by a command that uses it, and dataclasses (which pulls in
# inspect, ast and dis) only by a numpy layer.
_LAYER_PROBE = """
import contextlib, io, json, sys, types
import statmon.cli

def layers():
    names = ("statmon.extremal", "statmon.npartite", "statmon.selftest", "statmon.state3")
    seen = {m.split(".")[1]: "absent" if m not in sys.modules
            else "run" if type(sys.modules[m]) is types.ModuleType else "lazy" for m in names}
    return dict(seen, **{m: m in sys.modules for m in ("numpy", "dataclasses", "inspect")})

seen = {"import": layers()}
for argv in %s:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \\
            contextlib.suppress(SystemExit):
        statmon.cli.main(argv)
    seen[" ".join(argv)] = layers()
seen["pool"] = [m for m in ("concurrent.futures", "logging") if m in sys.modules]
print(json.dumps(seen))
"""


def test_importing_the_cli_leaves_out_the_thread_pool(tmp_path, capsys):
    # concurrent.futures pulls in logging: a few ms of import that only audit
    # needs; numpy is most of a `check`'s time, and the answer needs none of it
    without_numpy = [
        ["check", "--v", "0.6,0.6,-0.6"], ["check", "--v", "1,1,-1"], ["--help"], ["check", "--v", "2,0,0"],
        ["check"],
    ]
    # state and v of a three-box state, state of any stored one and surface run state3 only
    eq5 = json.loads(run(capsys, "state", "--name", "eq5")[1])
    payloads = {
        "paper3": eq5,
        # the k-th lex word ABC, ACB, BAC, BCA, CAB, CBA is paper3 word (0, 4, 1, 5, 2, 3)[k]
        "lex": dict(eq5, ordering="lex", amplitudes=[eq5["amplitudes"][k] for k in (0, 4, 1, 5, 2, 3)]),
        "four": st.state_to_jsonable(st.random_pure_state(4, 5)),
    }
    files = {name: tmp_path / f"{name}.json" for name in payloads}
    for name, payload in payloads.items():
        files[name].write_text(json.dumps(payload))
    state3_only = [
        ["state", "--name", "chi", "--theta", "1.25", "--phi", "0.5", "--s1", "+", "--s2", "-"],
        ["state", "--name", "eq5"], ["state", "--file", str(files["four"])], ["v", "--state", "nontransitive_3_5"],
        ["v", "--state", str(files["paper3"])], ["v", "--state", str(files["lex"])],
        ["surface", "--theta-steps", "4", "--phi-steps", "3"],
        ["surface", "--theta-steps", "4", "--phi-steps", "3", "--out", str(tmp_path / "mesh.csv")],
    ]
    four_box_v = ["v", "--state", str(files["four"])]
    for argv in state3_only + [four_box_v]:
        assert run(capsys, *argv)[0] == 0, argv
    for name in ("paper3", "lex"):
        assert json.loads(run(capsys, "v", "--state", str(files[name]))[1])["v"] == [1.0, -0.5, -0.5]
    seen = _fresh_python(
        _LAYER_PROBE % (without_numpy + state3_only + [four_box_v, ["extremal", "--objective", "AB:1,BC:-1"]])
    )
    untouched = {
        "extremal": "lazy", "npartite": "lazy", "selftest": "lazy", "state3": "lazy",
        "numpy": False, "dataclasses": False, "inspect": False,
    }
    assert seen.pop("import") == untouched
    for argv in without_numpy:
        assert seen.pop(" ".join(argv)) == untouched, argv
    for argv in state3_only:
        assert seen.pop(" ".join(argv)) == dict(untouched, state3="run"), argv
    # v of every box count runs state3's exchange pairs, with no numpy
    assert seen.pop(" ".join(four_box_v)) == dict(untouched, state3="run", numpy=False)
    assert seen.pop("extremal --objective AB:1,BC:-1") == dict(
        untouched, extremal="run", state3="run", numpy=True, dataclasses=True, inspect=True
    )
    assert seen == {"pool": []}


def test_v_of_a_stored_state_past_three_boxes_builds_no_pure_state(tmp_path, capsys, monkeypatch):
    # state3.read_state validates the amplitudes; the batched kernel reads them as they are
    want = {}
    for n in (4, 5):
        payload = st.state_to_jsonable(st.random_pure_state(n, 11))
        (tmp_path / f"{n}.json").write_text(json.dumps(payload))
        want[n] = st.state_from_jsonable(payload)

    def refuse(self, *args):
        raise AssertionError("a PureState was built")

    monkeypatch.setattr(st.PureState, "__init__", refuse)
    for n, state in want.items():
        code, out, _ = run(capsys, "v", "--state", str(tmp_path / f"{n}.json"))
        assert code == 0
        assert json.loads(out)["v"] == [float(f"{x:.12g}") for x in statmon.v_vector(state).tolist()]


def _stored_v_states(n: int) -> dict:
    """Canonical-order amplitudes of n boxes: a random complex state, one word
    (every other amplitude an exact zero) and a state of negative parts."""
    random = st.random_pure_state(n, 40 + n).amplitudes
    word = np.zeros(random.size, dtype=complex)
    word[-1] = -1.0
    negative = -(np.abs(random.real) + 1j * np.abs(random.imag))
    return {"random": random, "word": word, "negative": negative / np.linalg.norm(negative)}


def test_v_of_every_box_count_prints_the_batched_kernel_bits_without_numpy(tmp_path, capsys):
    lex3 = gc.BasisOrdering.canonical(3).indices(gc.BasisOrdering(3, "lex").word_array).tolist()
    argvs = []
    for n in range(2, 8):
        for kind, amps in _stored_v_states(n).items():
            want_v = [float(f"{x:.12g}") for x in exchange_rows(amps[None, :], n)[0].tolist()]
            payload = st.state_to_jsonable(st.PureState(n, amps))
            stored = [("canonical", payload)]
            if n == 3:  # the same state listed in lex word order
                lex = [payload["amplitudes"][m] for m in lex3]
                stored.append(("lex", dict(payload, ordering="lex", amplitudes=lex)))
            for ordering, obj in stored:
                path = tmp_path / f"{n}-{kind}-{ordering}.json"
                path.write_text(json.dumps(obj))
                argvs.append(["v", "--state", str(path)])
                code, out, _ = run(capsys, *argvs[-1])
                assert code == 0, argvs[-1]
                # json.dumps keeps a zero's sign, so the text pins every printed bit
                expected = {"n": n, "pairs": [p.label() for p in gc.canonical_pairs(n)], "v": want_v}
                assert out == json.dumps(expected, indent=2) + "\n", (n, kind, ordering)
    probe = (
        "import contextlib, io, json, sys\nimport statmon.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert statmon.cli.main(argv) == 0, argv\n"
        "print(json.dumps('numpy' in sys.modules))"
    )
    assert _fresh_python(probe) is False


# The statmon modules that are still LazyLoader modules when the audit's pool
# starts, and after the audit.
_POOL_PROBE = """
import concurrent.futures, contextlib, io, json, sys, types
import statmon.cli

def lazy():
    return sorted(m for m, module in list(sys.modules.items())
                  if m.startswith("statmon.") and type(module) is not types.ModuleType)

at_start = []
start = concurrent.futures.ThreadPoolExecutor.__init__
def probe(self, *args, **kwargs):
    at_start.append(lazy())
    start(self, *args, **kwargs)

concurrent.futures.ThreadPoolExecutor.__init__ = probe
with contextlib.redirect_stdout(io.StringIO()):
    code = statmon.cli.main(["audit", "--samples", "40000", "--seed", "3", "--mixed"])
print(json.dumps({"code": code, "at_start": at_start, "after": lazy()}))
"""


def test_the_audit_pool_threads_load_no_layer():
    # LazyLoader is not thread-safe before Python 3.12: every layer the shards
    # reach is loaded on the main thread before the pool starts
    seen = _fresh_python(_POOL_PROBE)
    assert seen["code"] == 0
    [at_start] = seen["at_start"]
    assert not {"statmon.monogamy", "statmon.state3"} & set(at_start)
    assert seen["after"] == at_start


def test_the_audit_runs_no_layer_past_monogamy_and_state3():
    # the audit reads its draw and exchange pairs from state3
    seen = _fresh_python(_POOL_PROBE)
    assert {"statmon.eigh", "statmon.group_core", "statmon.states"} <= set(seen["after"])


def test_importing_the_package_runs_no_layer():
    code = "import json, sys, statmon; print(json.dumps(sorted(m for m in sys.modules if 'statmon' in m)))"
    seen = _fresh_python(code)
    assert seen == ["statmon"]


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import statmon.state3", ["statmon", "statmon.errors", "statmon.region", "statmon.state3"]),
        # the membership names resolve to region, not to monogamy
        (
            "import statmon; statmon.check_sqrt([0.6, 0.6, -0.6]); statmon.RegionCheck; statmon.NAMED_STATES",
            ["statmon", "statmon.errors", "statmon.region"],
        ),
    ],
    ids=["state3", "check_sqrt"],
)
def test_numpy_free_layers_import_no_numpy(code, loaded):
    listed = "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'statmon'))"
    assert _fresh_python(f"{code}; import json, sys; print(json.dumps({listed}))") == loaded


STATMON_ALL = [
    "AuditReport", "BasisOrdering", "CapacityError", "Constraint", "ContractError", "ConvergenceError",
    "ExchangeOperator", "ExtremalResult", "InfeasibleError", "MixedState", "NAMED_STATES", "Objective",
    "Pair", "PermutationOperator", "PureState", "RegionCheck", "ScenarioBound", "ScenarioGraph",
    "SpectralDecomposition", "StatmonError", "SurfaceMesh", "SurfacePoint", "ValidationError", "WFrame",
    "all_exchange_operators", "antibunching_probability", "apply", "bunching_probability",
    "canonical_pairs", "check_sqrt", "check_theta", "chi_state", "constrained_extremal",
    "constraint_projector", "cyclic_operator", "eigh", "equal_up_to_global_phase", "errors",
    "exchange_operator", "expectation", "extremal", "group_core", "joint_eigenspace_basis",
    "max_expectation", "monogamy", "named_state", "normalize", "npartite", "observables",
    "random_pure_state", "random_search_max", "region", "region_audit", "relabel", "scenario_report",
    "spectral_bound", "state_from_jsonable", "state_to_jsonable", "states", "surface_mesh",
    "surface_state", "symmetric_ray_extreme", "symmetric_spectrum", "theta_family_margin",
    "triangle_bounds", "v_vector", "w_frame", "w_theta", "write_mesh_csv",
]
SUBMODULES = ("eigh", "errors", "extremal", "group_core", "monogamy", "npartite", "observables", "region", "states")


def test_no_submodule_keeps_its_own_export_list():
    # statmon._EXPORTS is the one list of public names
    for info in pkgutil.iter_modules(statmon.__path__):
        assert not hasattr(importlib.import_module(f"statmon.{info.name}"), "__all__"), info.name


def test_package_exports_resolve_to_their_submodule_objects():
    assert statmon.__all__ == STATMON_ALL
    assert set(STATMON_ALL) <= set(dir(statmon))
    modules = [importlib.import_module(f"statmon.{m}") for m in SUBMODULES]
    for name in STATMON_ALL:
        value = getattr(statmon, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"statmon.{name}"]
            continue
        holders = [m for m in modules if name in vars(m)]
        assert holders and all(vars(m)[name] is value for m in holders), name
    with pytest.raises(AttributeError):
        statmon.not_a_name


STATE3 = {"n": 3, "ordering": "paper3", "amplitudes": [[1, 0]] + [[0, 0]] * 5}
# Each payload once crashed with a traceback or, worse, produced a report.
MALFORMED = {
    "scenario-fixed-is-a-list": ["scenario", "--file", {"n": 4, "fixed": [1, 2], "free": []}],
    "scenario-n-not-a-number": ["scenario", "--file", {"n": "x", "fixed": {}, "free": []}],
    "scenario-has-no-edges": ["scenario", "--file", {"n": 4, "fixed": {}, "free": []}],
    "scenario-n-not-an-integer": ["scenario", "--file", {"n": 4.5, "fixed": {"AB": 1}, "free": ["AC"]}],
    "scenario-fixed-rounds-to-one": [
        "scenario", "--file", {"n": 4, "fixed": {"AB": 1.9, "AC": 1, "BC": 1}, "free": ["AD", "BD", "CD"]},
    ],
    "scenario-fixed-half": ["scenario", "--file", {"n": 4, "fixed": {"AB": -0.5, "CD": 1}, "free": ["AC"]}],
    "scenario-fixed-boolean": ["scenario", "--file", {"n": 4, "fixed": {"AB": True, "CD": 1}, "free": ["AC"]}],
    "scenario-free-not-a-label": ["scenario", "--file", {"n": 4, "fixed": {"AB": 1}, "free": [1]}],
    "scenario-misspelled-key": ["scenario", "--file", {"n": 4, "fix": {"AB": 1}, "free": ["CD"]}],
    "scenario-is-a-directory": ["scenario", "--file", "<dir>"],
    "state-n-not-a-number": ["v", "--state", {"n": "a", "ordering": "paper3", "amplitudes": []}],
    "state-too-few-amplitudes": ["v", "--state", {"n": 3, "ordering": "lex", "amplitudes": [[1, 0]]}],
    "state-is-a-directory": ["v", "--state", "<dir>"],
    "state-file-is-a-directory": ["state", "--file", "<dir>"],
    "state-out-in-missing-directory": ["state", "--name", "eq5", "--out", "<missing>/x.json"],
    "surface-out-is-a-directory": ["surface", "--theta-steps", "2", "--phi-steps", "2", "--out", "<dir>"],
    "extremal-objective-repeats-a-label": ["extremal", "--objective", "AB:1,AB:2"],
    "extremal-objective-nan-weight": ["extremal", "--objective", "AB:nan,CD:1"],
    "state-chi-flag-with-another-name": ["state", "--name", "eq5", "--theta", "1.0"],
    "state-chi-flag-with-a-file": ["state", "--file", STATE3, "--s1", "+"],
    # json.loads alone keeps the last of a repeated key
    "scenario-repeated-key": [
        "scenario", "--file", '{"n": 4, "fixed": {"AB": 1, "AB": -1, "AC": 1}, "free": ["BC"]}',
    ],
    "state-repeated-key": ["v", "--state", '{"n": 4, ' + json.dumps(STATE3)[1:]],
    # the norm's squares overflowed with numpy's RuntimeWarning before the refusal
    "state-amplitude-overflows-the-norm": [
        "v", "--state", {"n": 3, "ordering": "paper3", "amplitudes": [[1e200, 0]] + [[0, 0]] * 5},
    ],
    # complex() reads true as 1 and false as 0
    "state-amplitude-is-a-boolean": [
        "v", "--state", {"n": 3, "ordering": "paper3", "amplitudes": [[True, 0], [False, 0]] + [[0, 0]] * 4},
    ],
    "state-file-amplitude-is-a-boolean": [
        "state", "--file", {"n": 3, "ordering": "lex", "amplitudes": [[0, False], [True, 0]] + [[0, 0]] * 4},
    ],
    # an integer past the float range raised a bare OverflowError
    "state-amplitude-integer-overflows-a-float": [
        "v", "--state", '{"n": 3, "ordering": "paper3", "amplitudes": [[1' + "0" * 400 + ', 0]' + ", [0, 0]" * 5 + "]}",
    ],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv):
    args = []
    for arg in argv:
        if isinstance(arg, dict) or arg.startswith("{"):  # a payload, or raw JSON text
            path = tmp_path / "input.json"
            path.write_text(arg if isinstance(arg, str) else json.dumps(arg))
            arg = str(path)
        args.append(str(arg).replace("<dir>", str(tmp_path)).replace("<missing>", str(tmp_path / "missing")))
    code, out, err = run(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("statmon: error:")


def _flags():
    """Subcommand -> (required flags, optional flags), read from the parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for name, p in sub.choices.items():
        if name == "selftest":
            continue
        required = [a.option_strings[-1] for a in p._actions if a.required]
        optional = [
            o for a in p._actions if not a.required and not isinstance(a, argparse._HelpAction)
            for o in a.option_strings
        ]
        flags[name] = (required, optional)
    return flags


FLAGS = _flags()
SMALL_INT = st_h.integers(-64, 64).map(str)
# no "/", so that no value names a path outside the working directory, and
# no NUL, which no shell can pass in an argument
SHORT_TEXT = st_h.text(st_h.characters(blacklist_characters="/\x00"), max_size=8)
VOCABULARY = st_h.sampled_from(
    ["+", "-", "chi", "eq5", "nontransitive_3_5", "0.6,0.6,-0.6", "1,1,-1", "AB:1,BC:-1",
     "BC:-1", "AB:1,CD:1", "AB=1", "AB=1,CD=-1", "AB=1,AB=-1", "0.5", "1.5707963267948966",
     "nan", "inf", "-0", ".", ""]
)
JSON_LEAF = (
    st_h.none() | st_h.booleans() | st_h.integers(-64, 64)
    | st_h.floats(-2.0, 2.0) | SHORT_TEXT | st_h.sampled_from(["AB", "CD", "paper3", "lex"])
)
JSON_VALUE = st_h.recursive(
    JSON_LEAF,
    lambda inner: st_h.lists(inner, max_size=4) | st_h.dictionaries(SHORT_TEXT, inner, max_size=4),
    max_leaves=12,
)
PAIR_LABEL = st_h.sampled_from(["AB", "AC", "BC", "AD", "BD", "CD", "AE", "DE", "AA", "ab"])
SCENARIO = st_h.fixed_dictionaries({
    "n": st_h.integers(2, 8),
    "fixed": st_h.dictionaries(PAIR_LABEL, st_h.sampled_from([1, -1, 1.0, 1.9, -0.5, 0, True, "1"]), max_size=4),
    "free": st_h.lists(PAIR_LABEL, max_size=4),
})
STATE = st_h.fixed_dictionaries({
    "n": st_h.integers(2, 4),
    "ordering": st_h.sampled_from(["paper3", "lex", "x"]),
    "amplitudes": st_h.integers(0, 2).flatmap(
        lambda k: st_h.just([[6 ** -0.5, 0.0]] * 6) if k
        else st_h.lists(st_h.tuples(st_h.floats(-1.0, 1.0), st_h.floats(-1.0, 1.0)), max_size=7)
    ),
})


class JsonFile:
    """A payload the test writes to a temporary file, passing its path."""

    def __init__(self, payload):
        self.payload = payload


UNIT = st_h.floats(-1.0, 1.0).map(repr)
ANGLE = st_h.floats(0.0, 7.0).map(repr)
SIGN = st_h.sampled_from(["+", "-", "1", "-1", "0"])
WEIGHTS = st_h.dictionaries(PAIR_LABEL, st_h.integers(-64, 64), min_size=1, max_size=4)
ANY_VALUE = SMALL_INT | SHORT_TEXT | VOCABULARY | st_h.one_of(JSON_VALUE, SCENARIO, STATE).map(JsonFile)


def mostly(expected):
    """Three draws in four from the values a flag expects, else anything."""
    return st_h.integers(0, 3).flatmap(lambda k: expected if k else ANY_VALUE)


# Values each flag expects, mixed with arbitrary ones; flags that set the
# amount of work get only small numbers.
FLAG_VALUE = {
    "--name": mostly(st_h.sampled_from(statmon.states.NAMED_STATES)),
    "--file": mostly(st_h.one_of(SCENARIO, STATE).map(JsonFile)),
    "--state": mostly(STATE.map(JsonFile) | st_h.sampled_from(statmon.states.NAMED_STATES)),
    "--theta": mostly(ANGLE),
    "--phi": mostly(ANGLE),
    "--s1": mostly(SIGN),
    "--s2": mostly(SIGN),
    "--v": mostly(st_h.lists(UNIT, min_size=3, max_size=3).map(",".join)),
    "--seed": SMALL_INT,
    "--n": SMALL_INT,
    "--objective": mostly(WEIGHTS.map(lambda w: ",".join(f"{k}:{v}" for k, v in w.items()))),
    "--fix": mostly(st_h.dictionaries(PAIR_LABEL, SIGN, max_size=3).map(
        lambda f: ",".join(f"{k}={v}" for k, v in f.items())
    )),
    "--theta-steps": SMALL_INT,
    "--phi-steps": SMALL_INT,
    "--samples": st_h.integers(-64, 10**4).map(str),
    "--theta-grid": SMALL_INT,
    "--out": SHORT_TEXT | st_h.just("missing/x.json"),
}


@st_h.composite
def argvs(draw):
    command = draw(st_h.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    flags = [f for f in required if draw(st_h.integers(0, 9))]
    if optional:
        flags += draw(st_h.lists(st_h.sampled_from(optional), unique=True, max_size=4))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag != "--mixed":
            argv.append(draw(FLAG_VALUE[flag]))
    if not draw(st_h.integers(0, 19)):
        argv.append("--help")
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs())
def test_fuzzed_argv_exits_with_a_documented_code(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("fuzz")
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, JsonFile):
            path = work / f"input{k}.json"
            path.write_text(json.dumps(arg.payload))
            arg = path.name
        args.append(arg)
    here = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    except SystemExit as exc:
        assert exc.code == 0 and "--help" in args
        return
    finally:
        os.chdir(here)
    assert code in (0, 1, 2)
