"""CLI output locked against the JSON files in tests/golden/.

Each file holds an argv (with "<input>" standing for a scenario file whose
content is under "input"), the exit code and the parsed stdout.  Floats
compare to 1e-12 relative to max(1, |expected|); every other field
compares exactly.  Attaining states are locked through their `v`, `value`
and `degeneracy`: another vector of the same eigenspace is equally right,
so the golden files hold no amplitudes for them.
"""

import json
from pathlib import Path

import pytest

from statmon.cli import main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))
FLOAT_TOL = 1e-12


def _drop_attaining_amplitudes(payload: dict) -> dict:
    # `extremal` nests its attaining state under "state", `scenario` under
    # "attaining_state"; `state` prints its state at the top level
    for key in ("state", "attaining_state"):
        if isinstance(payload.get(key), dict):
            payload[key].pop("amplitudes")
    return payload


def _assert_matches(got, want, where="stdout"):
    if isinstance(want, float):
        assert type(got) is float and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_cli_output_matches_golden(path, capsys, tmp_path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    argv = list(golden["argv"])
    if "input" in golden:
        source = tmp_path / "input.json"
        source.write_text(json.dumps(golden["input"]), encoding="utf-8")
        argv[argv.index("<input>")] = str(source)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == golden["exit_code"]
    _assert_matches(_drop_attaining_amplitudes(json.loads(out)), golden["stdout"])
