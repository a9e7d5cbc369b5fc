"""Every top-level name of the package is read somewhere, and words are
enumerated in one module.

A function, class or assigned name at the top level of src/statmon/*.py must
occur again, as a whole word, in src/statmon/*.py, tests/*.py or
perfbench/*.py: its definition is one occurrence, so a name seen only once is
read by nothing.  Dunders are exempt, and so are the checks registered with
selftest's `_check` decorator, which run through the CHECKS list.

The words of n boxes, and so the basis order, come from state3 alone: no
other module of the package reaches `itertools.permutations`.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "statmon").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(isinstance(d, ast.Name) and d.id == "_check" for d in node.decorator_list):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_top_level_name_is_read_somewhere():
    words = collections.Counter(
        word for path in READERS for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unread = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
        if not (name.startswith("__") and name.endswith("__")) and words[name] < 2
    ]
    assert not unread, f"top-level names that nothing reads: {unread}"


def _permutations_uses(tree: ast.Module):
    """Line numbers where a module reaches itertools.permutations, by an
    `itertools` (or aliased) attribute or a `from itertools import`."""
    modules = {"itertools"} | {
        alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "itertools" and alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "permutations":
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                yield node.lineno


def test_only_state3_enumerates_words():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES if path.name != "state3.py"
        for line in _permutations_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"itertools.permutations outside state3: {found}"
    assert list(_permutations_uses(ast.parse((ROOT / "src" / "statmon" / "state3.py").read_text(encoding="utf-8"))))
