"""Every name a module of the package imports is used in that module,
every module-level private name and private attribute set on self is read
somewhere in the package, every public one is read somewhere in the
sources, the tests or the benchmark unless the package exports it, and the
command line loads no numpy module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import icosian

SOURCES = sorted(Path(icosian.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
READERS = SOURCES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("benchmarks/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return {n for n in names if not n.startswith("__")}


def private_definitions(source: str) -> set[str]:
    """Module-level private functions, classes and assigned names (not dunders)."""
    return {n for n in definitions(source) if n.startswith("_")}


def self_attributes(source: str) -> set[tuple[str, str]]:
    """(class, attribute) for each attribute (not dunder) assigned on self in a class."""
    found = set()
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef):
            found.update((cls.name, node.attr) for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self"
                         and not node.attr.startswith("__"))
    return found


def private_attributes(source: str) -> set[str]:
    """Private attributes (not dunders) assigned on self, as in ``self._x = ...``."""
    return {attr for _, attr in self_attributes(source) if attr.startswith("_")}


def loads(tree: ast.AST):
    """The names and attributes a tree reads.

    Storing into a subscript, as in ``_TABLE[i] = x`` or ``self._t[i] = x``,
    does not read the table, nor does assigning an attribute.
    """
    stored_into = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and id(node) not in stored_into]


def names_read(source: str) -> set[str]:
    """Names a source reads: as a name, an attribute or an imported name."""
    tree = ast.parse(source)
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in loads(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def attributes_read(source: str) -> set[str]:
    """Attributes a source reads, as in ``x.attr``."""
    return {node.attr for node in loads(ast.parse(source)) if isinstance(node, ast.Attribute)}


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each module-level private name or private attribute set
    on self that no source reads."""
    read = set().union(*(names_read(text) for text in sources.values()))
    return sorted((module, name) for module, text in sources.items()
                  for name in (private_definitions(text) | private_attributes(text)) - read)


def dead_public_names(sources: dict[str, str], readers: dict[str, str],
                      exported) -> list[tuple[str, str]]:
    """(module, name) for each public module-level name of the sources that no
    reader reads and exported does not list, and each public attribute set on
    self, in a class exported does not list, that no reader reads as an attribute."""
    read = set().union(*(names_read(text) for text in readers.values()))
    attrs = set().union(*(attributes_read(text) for text in readers.values()))
    dead = set()
    for module, text in sources.items():
        dead.update((module, name) for name in definitions(text) - read - set(exported)
                    if not name.startswith("_"))
        dead.update((module, attr) for cls, attr in self_attributes(text)
                    if not attr.startswith("_") and cls not in exported and attr not in attrs)
    return sorted(dead)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .field import ONE, ZERO as Z\n"
              "x = ONE + np.zeros(1)\n")
    assert unused_imports(source) == ["Z", "os"]


def test_dead_private_names_are_found():
    sample = ("import numpy as np\n"
              "_USED = 1\n_DEAD = 2\n"
              "_TABLE = np.zeros(3)\n_TABLE[0] = _USED\n"
              "_A, _B = 1, 2\n_NOTE: str = 'x'\n"
              "__all__ = ['public']\n"
              "def _helper():\n    return _A\n"
              "def _orphan():\n    pass\n"
              "class _Kind:\n    def _method(self):\n        pass\n"
              "class Public:\n"
              "    def __init__(self):\n"
              "        self._kept, self._stale = 1, 2\n"
              "        self._cells = [0]\n        self._cells[0] = self._kept\n"
              "        self.__slot = 3\n"
              "def public():\n    return _helper()\n")
    other = "from .sample import _B\nfrom . import sample\nx = sample._Kind\n"
    assert dead_private_names({"sample": sample, "other": other}) == [
        ("sample", "_DEAD"), ("sample", "_NOTE"), ("sample", "_TABLE"),
        ("sample", "_cells"), ("sample", "_orphan"), ("sample", "_stale")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_dead_public_names_are_found():
    sample = ("DEAD = 1\nUSED = 2\nEXPORTED = 3\n_private = 4\n"
              "def orphan():\n    pass\n"
              "class Kept:\n"
              "    def __init__(self):\n"
              "        self.read, self.stale, self._own = 1, 2, 3\n"
              "class Api:\n"
              "    def __init__(self):\n"
              "        self.unread = 1\n")
    # A name read as a variable is not an attribute read.
    reader = "from sample import USED, Kept\nstale = 0\nx = Kept().read + stale\n"
    assert dead_public_names({"sample": sample}, {"sample": sample, "reader": reader},
                             ["EXPORTED", "Api"]) == [
        ("sample", "DEAD"), ("sample", "orphan"), ("sample", "stale")]


def test_no_dead_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert dead_private_names(sources) == []


def test_no_dead_public_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    readers = {str(p): p.read_text(encoding="utf-8") for p in READERS}
    assert dead_public_names(sources, readers, icosian.__all__) == []


# Each command runs in one child process, whose stdout is discarded; the
# child prints the numpy.ma modules loaded by then.
NO_MA_CHILD = """
import contextlib, io, sys
from icosian.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_commands_leave_numpy_ma_unimported():
    """numpy.ma costs about 25 ms to import and no command uses it; a bare
    np.unique(..., axis=0) would load it.  The first command builds the
    24-cell census cold, its octahedra certified off their nearest-point table."""
    package_root = os.path.dirname(os.path.dirname(icosian.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    commands = ["export 24cell --format off --out -", "verify all", "build dual-snub24 --out -",
                "export 600cell --cell 5 --format off --out -",
                "orbit --weights 1,1,1,1 --decompose",
                "build 120cell --out -", "build e8 --out -",
                "export snub24 --cell 130 --format off --out -",
                "export 24cell --cell 3 --format off --out -"]
    done = subprocess.run([sys.executable, "-c", NO_MA_CHILD, *commands],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# What the weight-table oracle may take from the modules whose routines it
# checks: roots.weight_decomposition and roots.h4_orbit must not reach it.
ORACLE_IMPORTS = {"icosian.roots": {"h4_weights"}, "icosian.coxeter": {"wh4", "wd4c3"}}


def guarded_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for each name the source imports from a module of
    ORACLE_IMPORTS that that module does not allow; a module imported whole
    names "*"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.name, "*") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [(node.module, a.name) for a in node.names]
            found += [(f"{node.module}.{a.name}", "*") for a in node.names]
    return [(m, n) for m, n in found if m in ORACLE_IMPORTS and n not in ORACLE_IMPORTS[m]]


def test_guarded_imports_are_found():
    source = ("import icosian.roots\nfrom icosian import coxeter, engine\n"
              "from icosian.roots import _coset_action, h4_weights\n"
              "from icosian.coxeter import wd4c3, wh4\n")
    assert guarded_imports(source) == [("icosian.roots", "*"), ("icosian.coxeter", "*"),
                                       ("icosian.roots", "_coset_action")]


def test_the_weight_oracle_imports_only_the_weights_and_the_groups():
    assert guarded_imports((ROOT / "tests" / "weight_oracle.py").read_text()) == []
