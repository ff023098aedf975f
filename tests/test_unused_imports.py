"""Every name a library module imports is used in it, and every private
module-level name of the package is used somewhere in it.

No linter is a dependency of the project, so this walks each module's syntax
tree: a name bound by an import statement (other than `__future__`) must
occur somewhere in the module as an `ast.Name`.  `__init__.py` is left out,
because its imports are the package's exports.  A private (single-underscore)
module-level function, class or constant must be read somewhere in the
package: as a loaded name, an attribute, or an imported name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbound"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_detected():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
              "x = np.zeros(1) * tau\n")
    assert unused_imports(source) == ["os", "pi"]


def test_library_modules_use_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p.read_text()))}
    assert unused == {}


def private_definitions(source: str) -> list[str]:
    """Single-underscore names a module binds at its top level by def, class
    or assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(source: str) -> set[str]:
    """Names a module reads: loaded names, attribute names and imported names."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def test_unused_private_names_detected():
    source = ("_A = 1\n_B, c = 2, 3\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "def _g():\n    _local = 4\n    return _g()\n"
              "class _K:\n    pass\n")
    assert private_definitions(source) == ["_A", "_B", "_f", "_g", "_K"]
    assert sorted(set(private_definitions(source)) - references(source)) == ["_B", "_K", "_f"]


def test_library_private_names_are_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(references(text) for text in sources.values()))
    unused = {name: names for name, text in sources.items()
              if (names := [n for n in private_definitions(text) if n not in used])}
    assert unused == {}
