"""The benchmark's tracer wraps statmon functions named as strings in
perfbench/tracer.py; a rename or deletion would otherwise surface only as a
crash of the traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


def test_every_tracer_target_resolves_in_statmon():
    missing = []
    for layer, names in _tracer_targets().items():
        module = importlib.import_module(f"statmon.{layer}")
        for name in names:
            obj = module
            for attr in name.split("."):
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, f"perfbench/tracer.py TARGETS names what statmon lacks: {missing}"
