"""The benchmark's tracer wraps statmon functions named as strings in
perfbench/tracer.py, and its hooks read their arguments by parameter name; a
rename or deletion would otherwise surface only as a crash of the traced
benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _assigned(module: ast.Module, name: str) -> ast.expr:
    for node in module.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACER} assigns no {name}")


def _tracer_targets() -> dict:
    return ast.literal_eval(_assigned(ast.parse(TRACER.read_text()), "TARGETS"))


def _resolve(span: str):
    layer, name = span.split(".", 1)
    obj = importlib.import_module(f"statmon.{layer}")
    for attr in name.split("."):
        obj = getattr(obj, attr, None)
    return obj


def test_every_tracer_target_resolves_in_statmon():
    missing = [
        f"{layer}.{name}"
        for layer, names in _tracer_targets().items()
        for name in names
        if not callable(_resolve(f"{layer}.{name}"))
    ]
    assert not missing, f"perfbench/tracer.py TARGETS names what statmon lacks: {missing}"


def test_every_tracer_hook_reads_parameters_of_its_target():
    module = ast.parse(TRACER.read_text())
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    hooks = _assigned(module, "HOOKS")
    unknown = []
    for span, hook in zip(hooks.keys, hooks.values):
        read = {
            node.slice.value
            for node in ast.walk(functions[hook.id])
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "arguments"
            and isinstance(node.slice, ast.Constant)
        }
        assert read, f"hook {hook.id} reads no bound argument"
        parameters = inspect.signature(_resolve(span.value)).parameters
        unknown += [f"{span.value}: {key}" for key in sorted(read - set(parameters))]
    assert not unknown, f"perfbench/tracer.py HOOKS read arguments their targets lack: {unknown}"
