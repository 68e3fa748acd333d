"""Every name a module imports is read somewhere in that module, every
local name a package function assigns is read in that function, every
module-level `_private` name or UPPER_CASE constant of the package is read
somewhere in the package, and every public module-level function or class
of the package is read somewhere in the package, the demos or the
benchmark; a test alone is a reader only of `oracles.py`, the tests'
reference code.  Two paper results that README.md documents and only the
tests read are named exceptions.

No module of the package imports scipy: the `__init__` of each scipy
package imports much of scipy, which was most of a cold start.  scipy's
compiled kernels (HiGHS, SuperLU, brentq's loop) come in through
`lp.load_scipy_module` alone, which loads each from its file; only `lp.py`
imports `importlib`, and an interpreter that imports `entlink.cli` and
runs the CLI holds no scipy package.  The package has one LP solver path:
no module reaches `linprog`, and only `lp.py` loads scipy's HiGHS binding.
The package does its dense linear algebra with numpy only, since
`scipy.linalg` loads a second OpenBLAS thread pool that stalls numpy's: no
module imports or reads `scipy.linalg`.  Only `qstate.py` imports `ctypes`,
to call LAPACK's zpotrf in numpy's own OpenBLAS.

`__init__.py` files re-export what they import, and `from __future__`
imports change the compiler, so both are exempt from the import check.
"""

import ast
import ctypes
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from entlink import qstate
from entlink.lp import load_scipy_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "entlink").glob("*.py"))
FILES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")
READERS = sorted(p for d in ("src/entlink", "tests", "demos", "bench")
                 for p in (ROOT / d).glob("*.py"))
# public definitions that only the tests read: README.md documents them as
# results of the paper
TEST_READ_RESULTS = {("elemlink.py", "cutoff_infty_transient"),
                     ("elemlink.py", "expected_waiting_time")}


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


def unread_locals(source):
    """(line, name) of every local name a function assigns and never reads,
    `_` exempt; a nested function's reads count for the functions around it."""
    out = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
            read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
            out |= {(node.lineno, node.id) for node in names
                    if isinstance(node.ctx, ast.Store) and node.id not in read | {"_"}}
    return sorted(out)


def test_guard_sees_an_unused_local():
    source = ("def f(x):\n    a, b = x\n    c, _ = x\n    for i in a:\n        pass\n"
              "    def g():\n        return c\n    return g\n")
    assert unread_locals(source) == [(2, "b"), (4, "i")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unread_locals(path.read_text()) == []


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
    defined in `sources` (file -> source text) that no reader (path from the
    root -> source text) reads; readers under `tests/` count for `oracles.py`
    only."""
    trees = {path: ast.parse(text) for path, text in readers.items()}
    read = _read_names(tree for path, tree in trees.items() if not path.startswith("tests/"))
    read_by_tests = _read_names(trees.values())
    return sorted((path, node.lineno, node.name) for path, text in sources.items()
                  for node in ast.parse(text).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and node.name not in (read_by_tests if path == "oracles.py" else read))


def test_guard_sees_an_unread_name():
    sources = {"a.py": "TOL = 1\n_dead, LIMIT = 2, 3\ndef _used():\n    return TOL\n",
               "b.py": "from a import _used\nimport a\n_used(a.LIMIT)\n__all__ = []\n"}
    assert unread_names(sources) == [("a.py", 2, "_dead")]


def test_no_unread_module_level_names():
    assert unread_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_guard_sees_an_unread_public_definition():
    sources = {"m.py": "class Kept:\n    pass\ndef called():\n    pass\n"
                       "def orphan():\n    return called()\ndef _private():\n    pass\n"}
    readers = {"src/m.py": sources["m.py"], "demos/d.py": "import m\nm.Kept()\n"}
    assert unread_public_definitions(sources, readers) == [("m.py", 5, "orphan")]


def test_guard_counts_a_test_as_a_reader_of_oracles_only():
    sources = {"m.py": "def used():\n    pass\ndef tested():\n    pass\n",
               "oracles.py": "def reference():\n    pass\ndef unread():\n    pass\n"}
    readers = {"src/m.py": sources["m.py"], "src/oracles.py": sources["oracles.py"],
               "bench/b.py": "import m\nm.used()\n",
               "tests/test_m.py": "import m, oracles\nm.tested()\noracles.reference()\n"}
    assert unread_public_definitions(sources, readers) == [("m.py", 3, "tested"),
                                                           ("oracles.py", 3, "unread")]


def test_no_unread_public_definitions():
    found = unread_public_definitions({p.name: p.read_text() for p in PACKAGE},
                                      {str(p.relative_to(ROOT)): p.read_text()
                                       for p in READERS})
    assert {(path, name) for path, _, name in found} == TEST_READ_RESULTS


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


def _loaded_scipy_modules(tree):
    """(line, name) of every `load_scipy_module("name")` call with a constant
    argument."""
    return [(node.lineno, node.args[0].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant)
            and "load_scipy_module" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]


def second_solver_paths(sources):
    """(file, line, what) of every import or attribute read of `linprog`,
    and every load of scipy's HiGHS binding outside lp.py."""
    out = []
    for path, text in sources.items():
        tree = ast.parse(text)
        out += [(path, line, name) for line, name in imported_names(text)
                if "linprog" in name.split(".")]
        out += [(path, node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "linprog"]
        if path != "lp.py":
            out += [(path, line, name) for line, name in _loaded_scipy_modules(tree)
                    if name.startswith("optimize._highspy")]
    return sorted(out)


def test_guard_sees_a_second_solver_path():
    sources = {"lp.py": 'highs = load_scipy_module("optimize._highspy._core")\n',
               "a.py": "from scipy.optimize import linprog\n",
               "b.py": ('from .lp import load_scipy_module\nload_scipy_module("optimize._zeros")\n'
                        'h = load_scipy_module("optimize._highspy._core")\n'),
               "c.py": "from scipy import optimize\noptimize.linprog\n",
               "d.py": 'import os\nfrom . import lp\nlp.load_scipy_module("optimize._highspy")\n'}
    assert second_solver_paths(sources) == [
        ("a.py", 1, "scipy.optimize.linprog"), ("b.py", 3, "optimize._highspy._core"),
        ("c.py", 2, "linprog"), ("d.py", 3, "optimize._highspy")]


def test_one_solver_path():
    assert second_solver_paths({p.name: p.read_text() for p in PACKAGE}) == []


def scipy_imports(source):
    return [(line, name) for line, name in imported_names(source)
            if name.split(".")[0] == "scipy"]


def test_guard_sees_a_scipy_import():
    assert scipy_imports("import numpy as np\nfrom scipy import linalg\n") == [
        (2, "scipy.linalg")]
    assert scipy_imports("from .lp import solve\nfrom . import scipy\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def dynamic_imports(source):
    """(line, what) of every import of `importlib` and every read of
    `__import__`: the ways to load a module by name."""
    out = [(line, name) for line, name in imported_names(source)
           if name.split(".")[0] == "importlib"]
    out += [(node.lineno, "__import__") for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "__import__"]
    return sorted(out)


def test_guard_sees_a_dynamic_import():
    source = ("import importlib.util\nfrom importlib import import_module\n"
              "__import__('scipy')\nimport numpy\n")
    assert dynamic_imports(source) == [(1, "importlib.util"), (2, "importlib.import_module"),
                                       (3, "__import__")]


def test_only_lp_loads_modules_by_name():
    assert [(p.name, found) for p in PACKAGE if p.name != "lp.py"
            for found in dynamic_imports(p.read_text())] == []


def ctypes_imports(source):
    return [(line, name) for line, name in imported_names(source)
            if name.split(".")[0] == "ctypes"]


def test_guard_sees_a_ctypes_import():
    source = "import ctypes\nfrom ctypes import CDLL\nimport ctypes.util as cu\nimport os\n"
    assert ctypes_imports(source) == [(1, "ctypes"), (2, "ctypes.CDLL"), (3, "ctypes.util")]


def test_only_qstate_imports_ctypes():
    assert [(p.name, found) for p in PACKAGE if p.name != "qstate.py"
            for found in ctypes_imports(p.read_text())] == []


def test_qstate_binds_zpotrf_in_numpys_own_openblas():
    # the routine qstate calls is the ILP64 one that numpy's linalg module
    # resolves, not one of a second OpenBLAS (scipy's is LP64)
    name = qstate._zpotrf.__name__
    numpys = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), name)
    assert name.endswith("zpotrf_64_")
    assert (ctypes.cast(qstate._zpotrf, ctypes.c_void_p).value
            == ctypes.cast(numpys, ctypes.c_void_p).value)


COLD_START = """\
import contextlib, io, sys
PACKAGES = {"scipy", "scipy.sparse", "scipy.linalg", "scipy.optimize"}
import entlink.cli
print(sorted(PACKAGES & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()):
    assert entlink.cli.main(["twolink", "lp-waiting", "--p1", "0.5", "--p2", "0.5",
                             "--q", "0.5", "--m1-star", "2", "--m2-star", "2"]) == 0
    assert entlink.cli.main(["--selftest"]) == 0
print(sorted(PACKAGES & set(sys.modules)))
zeros = sys.modules["scipy.optimize._zeros"]
from scipy.optimize._highspy import _core
from scipy.sparse.linalg._dsolve import _superlu
from scipy.optimize import _zeros, brentq
root = lambda x: x * x - 2
print(_core is entlink.lp.highs, _superlu is entlink.lp.superlu, _zeros is zeros,
      entlink.selftest._brentq(root, 0, 2) == brentq(root, 0, 2, xtol=1e-12))
"""


def test_cli_loads_no_scipy_package():
    # `import entlink.cli` loaded 795 modules, scipy.sparse, scipy.linalg and
    # all of scipy.optimize among them; a later import of a kernel, also
    # through its package, gets the module the package loaded from its file
    r = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n[]\nTrue True True True\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_scipy_blas_starts_no_thread():
    # each new OpenBLAS thread busy-waits for ~0.1 s of CPU: scipy's, loaded
    # with SuperLU, took a core from numpy's BLAS in the first computation
    code = ("import os, numpy\nn = len(os.listdir('/proc/self/task'))\nimport entlink.cli\n"
            "print(len(os.listdir('/proc/self/task')) - n, os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=120, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 None\n"


def test_load_scipy_module_names_a_missing_module():
    with pytest.raises(ImportError, match="scipy.optimize._no_such_kernel"):
        load_scipy_module("optimize._no_such_kernel")
    assert "scipy.optimize._no_such_kernel" not in sys.modules


def scipy_linalg_uses(source):
    """(line, what) of every import of `scipy.linalg` or anything in it, and
    every read of `linalg` as an attribute of an imported `scipy` module."""
    out = [(line, name) for line, name in scipy_imports(source)
           if name.split(".")[1:2] == ["linalg"]]
    tree = ast.parse(source)
    scipy_names = {alias.asname or "scipy" for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "scipy"
                   or (alias.asname is None and alias.name.startswith("scipy."))}
    out += [(node.lineno, "scipy.linalg") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id in scipy_names]
    return sorted(out)


def test_guard_sees_scipy_linalg_in_any_spelling():
    source = ("from scipy.linalg import expm\n"
              "import scipy.linalg\n"
              "from scipy import linalg, sparse\n"
              "import scipy.linalg._basic as b\n"
              "import scipy as sp\n"
              "sp.linalg.eigh\n"
              "import scipy.sparse\n"
              "scipy.linalg.expm\n"
              "from scipy.sparse.linalg import splu\n"
              "import numpy as np\n"
              "np.linalg.eigh\n")
    assert scipy_linalg_uses(source) == [
        (1, "scipy.linalg.expm"), (2, "scipy.linalg"), (3, "scipy.linalg"),
        (4, "scipy.linalg._basic"), (6, "scipy.linalg"), (8, "scipy.linalg")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_scipy_linalg(path):
    assert scipy_linalg_uses(path.read_text()) == []
