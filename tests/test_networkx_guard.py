"""No library module imports networkx, numpy or dataclasses.

networkx and numpy are test dependencies only: the tests keep networkx as
the router's oracle and numpy for matrix oracles, while the library routes
on its own integer arrays and draws its tessellations in plain floats.  The
library's records are `NamedTuple`s and plain classes, since `dataclasses`
loads `inspect` and compiles each class's methods when it is defined.
`test_cold_start.py` runs each command and sees what it loads, but not a
library function that no command calls.  So this walks each module's syntax
tree and fails on any `import networkx` / `import numpy` / `import
dataclasses` or `from networkx...` / `from numpy...` / `from dataclasses
import`, at module level or nested in a function, class or `TYPE_CHECKING`
block.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbound"


def package_imports(source: str, package: str) -> list[int]:
    """The lines, in order, of the import statements in `source` that name
    `package` or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == package or m.startswith(package + ".") for m in modules):
            found.append(node.lineno)
    return sorted(found)


def networkx_imports(source: str) -> list[int]:
    return package_imports(source, "networkx")


def numpy_imports(source: str) -> list[int]:
    return package_imports(source, "numpy")


def _library_imports(find) -> dict[str, list[int]]:
    modules = sorted(SRC.glob("*.py"))
    assert modules
    return {p.name: lines for p in modules if (lines := find(p.read_text()))}


def test_networkx_imports_detected():
    source = ("import networkx as nx\n"
              "def f():\n    from networkx.algorithms import flow\n"
              "class K:\n    def g(self):\n        import os, networkx\n"
              "if TYPE_CHECKING:\n    from networkx import Graph\n"
              "import networkxx\nfrom .networkx import x\nnx = None\n")
    assert networkx_imports(source) == [1, 3, 6, 8]


def test_no_library_module_imports_networkx():
    assert _library_imports(networkx_imports) == {}


def test_numpy_imports_detected():
    source = ("import numpy as np\n"
              "def f():\n    from numpy.linalg import svd\n"
              "class K:\n    def g(self):\n        import os, numpy\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "import numpyx\nfrom .numpy import x\nnp = None\n")
    assert numpy_imports(source) == [1, 3, 6, 8]


def test_no_library_module_imports_numpy():
    assert _library_imports(numpy_imports) == {}


def test_no_library_module_imports_dataclasses():
    assert _library_imports(lambda source: package_imports(source, "dataclasses")) == {}
