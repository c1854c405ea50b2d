"""Every attribute of alcm's modules that the benchmark under perfbench/
reaches exists under src/.

The benchmark looks its alcm functions up by name at run time: the traced
run wraps the module attributes that `tracing.WRAPPED` lists, and the ops
read the modules of `workloads.MODULES` by attribute.  A rename or deletion
in src/ would break a benchmark run without failing any other test.  The
benchmark's modules import only the standard library, so they are loaded
here from their files.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's `tracing` and `workloads` modules, by name."""
    out = {}
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(
            f"_perfbench_{name}", PERFBENCH / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # dataclasses look their module up
        try:
            spec.loader.exec_module(mod)
        finally:
            del sys.modules[spec.name]
        out[name] = mod
    return out


def _module_key(node, modules):
    """The module name of ``<dict>["<module>"]``, else None."""
    if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value in modules):
        return node.slice.value
    return None


def module_attributes(source: str, modules) -> set:
    """(module, attribute) of every attribute read off one of ``modules``,
    held in a dict by module name (``alcm["engine"].x``), in a variable
    named after the module (``engine.x``) or in a variable assigned from
    such a dict (``s = alcm["syntax"]``, then ``s.x``)."""
    tree = ast.parse(source)
    alias = {m: m for m in modules}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and (m := _module_key(node.value, modules))):
            alias[node.targets[0].id] = m
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        v = node.value
        if m := _module_key(v, modules):
            found.add((m, node.attr))
        elif isinstance(v, ast.Name) and v.id in alias:
            found.add((alias[v.id], node.attr))
    return found


def missing(reached) -> list:
    return sorted(f"{m}.{a}" for m, a in reached
                  if not hasattr(importlib.import_module("alcm." + m), a))


def test_every_traced_attribute_exists(bench):
    paths = [p for ps in bench["tracing"].WRAPPED.values() for p in ps]
    assert len(paths) >= 15
    assert missing(tuple(p.split(".")) for p in paths) == []


def test_every_attribute_the_runs_read_exists(bench):
    workloads = bench["workloads"]
    reached = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reached |= module_attributes(path.read_text(encoding="utf-8"), workloads.MODULES)
    reached |= {("inference", s) for s in workloads.QUERY_SERVICES.values()}
    # the names the traced run reads off the engine before and around its spans
    assert {("engine", "_unsat_with_order"), ("engine", "BaseJudgement"),
            ("engine", "VariableJudgement")} <= reached
    assert missing(reached) == []


def test_the_attribute_scan_sees_what_it_should():
    source = ("u = alcm['engine']._unsat_with_order\n"
              "def f(engine, s, t):\n"
              "    o = self.alcm['oracle']\n"
              "    return (engine.BaseJudgement, self.alcm['oracle'].decide, o.Referee,\n"
              "            tracing.WRAPPED, s.atom, alcm['other'].x, 'engine.rule')\n")
    assert module_attributes(source, ("engine", "oracle")) == {
        ("engine", "_unsat_with_order"), ("engine", "BaseJudgement"), ("oracle", "decide"),
        ("oracle", "Referee")}
    assert missing([("engine", "check_consistency"), ("engine", "no_such_name")]) == [
        "engine.no_such_name"]
