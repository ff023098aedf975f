"""Every name a library module imports is used in it.

No linter is a dependency of the project, so this walks each module's syntax
tree: a name bound by an import statement (other than `__future__`) must
occur somewhere in the module as an `ast.Name`.  `__init__.py` is left out,
because its imports are the package's exports.
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
