"""No module under src/ or tests/ imports a name it never uses, and no
module under src/ defines a private name that src/ never reads.

An imported name counts as used when the module reads it anywhere, or
lists it in `__all__` (a package's re-exports).  `from __future__` imports
are compiler directives, not names.

A private name is a module-level `_`-prefixed function, class or variable
(dunders such as `__all__` excepted).  It counts as read when any module
under src/ loads it as a name or an attribute (``engine._walk``), or
imports it by name.  Tests do not count: code only they reach is dead.

The oracle, the yardstick the engine is measured and refereed against,
takes none of `syntax`'s NNF functions: it keeps its own copy.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names
                         if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from typing import List, Dict as D\n"
              "from x import *\n"
              "__all__ = ['List']\n"
              "def f(): return os.sep\n")
    assert unused_imports(source) == [(3, "j"), (4, "D")]


def _private_definitions(tree):
    """(line, name) of every module-level private name ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, n) for n in names
                    if n.startswith("_") and not n.startswith("__"))


def unread_private_names(sources):
    """(module, line, name) of every private name defined in ``sources``, a
    mapping of module name to source text, that none of them reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return [(mod, line, name) for mod, tree in trees.items()
            for line, name in _private_definitions(tree) if name not in read]


def test_no_unread_private_names_in_src():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    found = [f"{mod}:{line}: {name}" for mod, line, name in unread_private_names(sources)]
    assert not found, "private names nothing in src/ reads:\n" + "\n".join(found)


def test_the_private_name_check_sees_what_it_should():
    sources = {
        "a": ("__all__ = ['f']\n"
              "_PUNCT = {'(', ')'}\n"
              "_ORDER: dict = {}\n"
              "_x, _y = 1, 2\n"
              "class _Node: pass\n"
              "def _canonical_fresh(abox): return abox\n"
              "def _walk(g): return _Node()\n"
              "def f(): return _y\n"),
        "b": ("from a import _ORDER\n"
              "import a\n"
              "def g(): a._walk(None); a._PUNCT = set()\n"),
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_PUNCT"), ("a", 4, "_x"), ("a", 6, "_canonical_fresh")]


# The NNF functions of `syntax`, which the engine uses and memoises.
SHARED_NNF = {"nnf", "nnf_tbox", "nnf_abox"}


def shared_nnf_uses(source: str):
    """(line, name) of each of `syntax`'s NNF functions that a module
    imports by name, from whatever module, or reads as ``syntax.<name>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in SHARED_NNF]
        elif (isinstance(node, ast.Attribute) and node.attr in SHARED_NNF
              and isinstance(node.value, ast.Name) and node.value.id == "syntax"):
            found.append((node.lineno, node.attr))
    return found


def test_the_oracle_keeps_its_own_nnf():
    path = ROOT / "src" / "alcm" / "oracle.py"
    assert shared_nnf_uses(path.read_text(encoding="utf-8")) == []


def test_the_nnf_check_sees_what_it_should():
    source = ("from . import syntax\n"
              "from .syntax import (\n    conj,\n    nnf_abox,\n)\n"
              "from alcm.syntax import nnf\n"
              "from . import nnf_tbox\n"
              "from .engine import nnf as other\n"
              "def f(c): return syntax.nnf(c), syntax.neg(c), _nnf(c)\n")
    assert shared_nnf_uses(source) == [
        (2, "nnf_abox"), (6, "nnf"), (7, "nnf_tbox"), (8, "nnf"), (9, "nnf")]
