"""Only `system.py` reads the name-keyed label dict of a `CoxeterSystem`.

The other library modules read labels by generator position (`label_rows`,
`finite_masks`, `diagram_index` and the finite pairs).  This walks each
module's syntax tree and fails on any attribute named `orders`, `m` or
`pairs` outside `system.py`.  `report_to_json`'s oracle, which reads `m` and
`pairs`, lives in the tests.  Inside `system.py`, `orders` is computed from
`label_rows` on each read, and only the two methods that rebuild a system
from its labels by name read it: `__repr__` and `__reduce__`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coxbound"

NAME_KEYED = {"orders", "m", "pairs"}

# the methods of `system.py` that may read `orders`
ORDERS_READERS = {"CoxeterSystem.__repr__", "CoxeterSystem.__reduce__"}


def _owned(tree: ast.Module):
    """(owner, node) for each top-level statement, the owner its name or "";
    a top-level class gives each statement of its body as `Class.name` (or
    `Class` for one without a name), and its bases, keywords and decorators
    as `Class`."""
    for top in tree.body:
        owner = getattr(top, "name", "")
        if not isinstance(top, ast.ClassDef):
            yield owner, top
            continue
        for node in (*top.bases, *top.keywords, *top.decorator_list):
            yield owner, node
        for item in top.body:
            yield (f"{owner}.{item.name}" if hasattr(item, "name") else owner), item


def name_keyed_reads(source: str) -> list[tuple[str, int, str]]:
    """(owner, line, attribute) for every attribute named `orders`, `m` or
    `pairs` in `source`; the owner is the enclosing top-level function, the
    `Class.method` of a method, or ""."""
    found = []
    for owner, top in _owned(ast.parse(source)):
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in NAME_KEYED:
                found.append((owner, node.lineno, node.attr))
    return found


def orders_readers(source: str) -> set[str]:
    """The owners that read an attribute named `orders` in `source`."""
    return {owner for owner, _, attr in name_keyed_reads(source) if attr == "orders"}


def test_name_keyed_reads_detected():
    source = ("def f(sys):\n    return sys.m('a', 'b')\n"
              "class K:\n    def g(self, sys):\n        return list(sys.pairs())\n"
              "label = SYS.orders.get\n"
              "def h(sys):\n    return sys.label_rows, sys.mask, sys.pair\n")
    assert name_keyed_reads(source) == [("f", 2, "m"), ("K.g", 5, "pairs"), ("", 6, "orders")]
    # inside a class, each method is its own owner
    system = ("class CoxeterSystem(Base.orders):\n"
              "    table = orders.m\n"
              "    def __repr__(self):\n        return repr(self.orders)\n"
              "    @property\n    def orders(self):\n        return dict(self.label_rows)\n"
              "    def m(self, s, t):\n        return self.orders[s, t]\n")
    assert name_keyed_reads(system) == [("CoxeterSystem", 1, "orders"), ("CoxeterSystem", 2, "m"),
                                        ("CoxeterSystem.__repr__", 4, "orders"),
                                        ("CoxeterSystem.m", 9, "orders")]
    assert orders_readers(system) == {"CoxeterSystem", "CoxeterSystem.__repr__",
                                      "CoxeterSystem.m"}


def test_only_system_reads_labels_by_name():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "system.py")
    assert modules
    reads = {p.name: found for p in modules if (found := name_keyed_reads(p.read_text()))}
    assert reads == {}


def test_system_reads_orders_only_to_rebuild():
    assert orders_readers((SRC / "system.py").read_text()) == ORDERS_READERS
