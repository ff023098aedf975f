"""No library module imports networkx.

networkx is a test dependency only: the tests keep it as the router's oracle,
and the library routes on its own integer arrays.  `test_cold_start.py` runs
each command and sees what it loads, but not a library function that no
command calls.  So this walks each module's syntax tree and fails on any
`import networkx` or `from networkx... import`, at module level or nested in
a function, class or `TYPE_CHECKING` block.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbound"


def networkx_imports(source: str) -> list[int]:
    """The lines, in order, of the import statements in `source` that name
    networkx or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "networkx" or m.startswith("networkx.") for m in modules):
            found.append(node.lineno)
    return sorted(found)


def test_networkx_imports_detected():
    source = ("import networkx as nx\n"
              "def f():\n    from networkx.algorithms import flow\n"
              "class K:\n    def g(self):\n        import os, networkx\n"
              "if TYPE_CHECKING:\n    from networkx import Graph\n"
              "import networkxx\nfrom .networkx import x\nnx = None\n")
    assert networkx_imports(source) == [1, 3, 6, 8]


def test_no_library_module_imports_networkx():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: lines for p in modules if (lines := networkx_imports(p.read_text()))}
    assert found == {}
