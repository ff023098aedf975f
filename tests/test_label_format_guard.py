"""Only `system.py` reads the name-keyed label dict of a `CoxeterSystem`.

The other library modules read labels by generator position (`label_rows`,
`finite_masks`, `diagram_index` and the finite pairs).  This walks each
module's syntax tree and fails on any attribute named `orders`, `m` or
`pairs` outside `system.py`.  `report_to_json`'s oracle, which reads `m` and
`pairs`, lives in the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbound"

NAME_KEYED = {"orders", "m", "pairs"}


def name_keyed_reads(source: str) -> list[tuple[str, int, str]]:
    """(enclosing top-level definition or "", line, attribute) for every
    attribute named `orders`, `m` or `pairs` in `source`."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in NAME_KEYED:
                found.append((owner, node.lineno, node.attr))
    return found


def test_name_keyed_reads_detected():
    source = ("def f(sys):\n    return sys.m('a', 'b')\n"
              "class K:\n    def g(self, sys):\n        return list(sys.pairs())\n"
              "label = SYS.orders.get\n"
              "def h(sys):\n    return sys.label_rows, sys.mask, sys.pair\n")
    assert name_keyed_reads(source) == [("f", 2, "m"), ("K", 5, "pairs"), ("", 6, "orders")]


def test_only_system_reads_labels_by_name():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "system.py")
    assert modules
    reads = {p.name: found for p in modules if (found := name_keyed_reads(p.read_text()))}
    assert reads == {}
