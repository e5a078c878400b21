"""The names the benchmark harness reads from the package still exist.

perfbench/spans.py patches module attributes for --trace 1, and the
reference checks import package functions; a removed or renamed name
breaks them only when the benchmark runs. Both lists are read from the
harness's source with ast, so this test follows any edit to it."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets():
    """(module, attribute) of every span in perfbench/spans.py TARGETS."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _imports():
    """(module, name) of every `from liecheck.x import name` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("liecheck."):
                module = node.module.removeprefix("liecheck.")
                found += [(module, alias.name) for alias in node.names]
    return found


def test_perfbench_names_resolve():
    targets, imports = _targets(), _imports()
    # the parse found the lists it reads
    assert ("fastscan", "bulk_margins_scaled") in targets
    assert ("fastscan", "bulk_spin_sq_scaled") in imports
    missing = [
        f"liecheck.{module}.{name}"
        for module, name in targets + imports
        if not hasattr(importlib.import_module(f"liecheck.{module}"), name)
    ]
    assert not missing
