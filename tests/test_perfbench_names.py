"""The names and records the benchmark harness reads from the package.

perfbench/spans.py patches module attributes for --trace 1, and the
reference checks import package functions; a removed or renamed name
breaks them only when the benchmark runs. Both lists are read from the
harness's source with ast, so this test follows any edit to it. The
long-slices workload also checks the scan's record file with
check_checkpoint, which runs here on the workload's own boxes."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from liecheck.data import golden
from liecheck.report_cli import main

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


def _load(name, monkeypatch):
    """The perfbench module name, loaded from its path; workloads.py
    imports checks as a top-level module."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_records_pass_the_long_slices_check(tmp_path, monkeypatch):
    # the records verify writes for each long-slices box pass the
    # benchmark's check_checkpoint, and a lost record fails it
    checks = _load("checks", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    for family in workloads.SLICE_FAMILIES:
        box = workloads.last_slice(golden()["boxes"][family])
        ckdir = tmp_path / family
        monkeypatch.setenv("LIECHECK_CHECKPOINT_DIR", str(ckdir))
        report = tmp_path / f"{family}.json"
        argv = ["verify", family, "--box", workloads.render(family, box)]
        assert main(argv + ["--report", str(report)]) == 0
        (path,) = ckdir.iterdir()
        out = {
            "results": json.loads(report.read_text())["results"],
            "checkpoint": json.loads(path.read_text()),
        }
        op = SimpleNamespace(box=box)
        assert checks.check_checkpoint(op, out, None) == []
        out["checkpoint"]["slices"].popitem()
        assert checks.check_checkpoint(op, out, None)
