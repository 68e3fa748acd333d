"""Every name a module imports is read somewhere in that module, every
module-level `_private` name or UPPER_CASE constant of the package is read
somewhere in the package, and every public module-level function or class
of the package is read somewhere in the package, the tests, the demos or
the benchmark.  The package has one LP solver path: no module reaches
`linprog`, and only `lp.py` imports scipy's HiGHS binding.  `markov.py` and
`mc.py` import no scipy.

`__init__.py` files re-export what they import, and `from __future__`
imports change the compiler, so both are exempt from the import check.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "entlink").glob("*.py"))
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")
READERS = sorted(p for d in ("src/entlink", "tests", "demos", "bench")
                 for p in (ROOT / d).glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _module_level_names(tree):
    """Line of each module-level `_private` name (not a dunder) or UPPER_CASE
    constant: assignment targets, functions and classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name, line in found:
            if name.isupper() or (name.startswith("_") and not name.startswith("__")):
                out[name] = line
    return out


def _read_names(trees):
    """Every name the trees read, as a bare name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_names(sources):
    """(file, line, name) of every module-level `_private` name or UPPER_CASE
    constant in `sources` (file -> source text) that none of them reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = _read_names(trees.values())
    return sorted((path, line, name) for path, tree in trees.items()
                  for name, line in _module_level_names(tree).items() if name not in read)


def unread_public_definitions(sources, readers):
    """(file, line, name) of every public module-level function or class
    defined in `sources` (file -> source text) that none of `readers`
    (more source texts) reads."""
    read = _read_names(ast.parse(text) for text in readers)
    return sorted((path, node.lineno, node.name) for path, text in sources.items()
                  for node in ast.parse(text).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in read)


def test_guard_sees_an_unread_name():
    sources = {"a.py": "TOL = 1\n_dead, LIMIT = 2, 3\ndef _used():\n    return TOL\n",
               "b.py": "from a import _used\nimport a\n_used(a.LIMIT)\n__all__ = []\n"}
    assert unread_names(sources) == [("a.py", 2, "_dead")]


def test_no_unread_module_level_names():
    assert unread_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_guard_sees_an_unread_public_definition():
    sources = {"m.py": "class Kept:\n    pass\ndef called():\n    pass\n"
                       "def orphan():\n    return called()\ndef _private():\n    pass\n"}
    readers = [*sources.values(), "import m\nm.Kept()\n"]
    assert unread_public_definitions(sources, readers) == [("m.py", 5, "orphan")]


def test_no_unread_public_definitions():
    assert unread_public_definitions({p.name: p.read_text() for p in PACKAGE},
                                     [p.read_text() for p in READERS]) == []


def imported_names(source):
    """(line, dotted name) of everything a source imports: `import a.b` gives
    "a.b", `from a.b import c` gives "a.b.c", `from . import c` gives ".c"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out += [(node.lineno, f"{base}.{alias.name}" if node.module else base + alias.name)
                    for alias in node.names]
    return out


def second_solver_paths(sources):
    """(file, line, what) of every import or attribute read of `linprog`,
    and every import of scipy's HiGHS binding outside lp.py."""
    out = []
    for path, text in sources.items():
        for line, name in imported_names(text):
            if "linprog" in name.split("."):
                out.append((path, line, name))
            elif name.startswith("scipy.optimize._highspy") and path != "lp.py":
                out.append((path, line, name))
        out += [(path, node.lineno, node.attr) for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Attribute) and node.attr == "linprog"]
    return sorted(out)


def test_guard_sees_a_second_solver_path():
    sources = {"lp.py": "from scipy.optimize import _highspy\n",
               "a.py": "from scipy.optimize import linprog\n",
               "b.py": "import scipy.optimize._highspy._core as h\n",
               "c.py": "from scipy import optimize\noptimize.linprog\n",
               "d.py": "import os\nfrom scipy.optimize import _highspy\n"}
    assert second_solver_paths(sources) == [
        ("a.py", 1, "scipy.optimize.linprog"), ("b.py", 1, "scipy.optimize._highspy._core"),
        ("c.py", 2, "linprog"), ("d.py", 2, "scipy.optimize._highspy")]


def test_one_solver_path():
    assert second_solver_paths({p.name: p.read_text() for p in PACKAGE}) == []


def scipy_imports(source):
    return [(line, name) for line, name in imported_names(source)
            if name.split(".")[0] == "scipy"]


def test_guard_sees_a_scipy_import():
    assert scipy_imports("import numpy as np\nfrom scipy import linalg\n") == [
        (2, "scipy.linalg")]
    assert scipy_imports("from .lp import solve\nfrom . import scipy\n") == []


def test_markov_does_not_import_scipy():
    assert scipy_imports((ROOT / "src" / "entlink" / "markov.py").read_text()) == []


def test_mc_does_not_import_scipy():
    assert scipy_imports((ROOT / "src" / "entlink" / "mc.py").read_text()) == []
