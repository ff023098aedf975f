"""The contract of the library's records.

Fifteen result types are pure records; `CoxeterSystem` alone also caches what
it computes.  For each type: construction by position and by keyword,
defaults, the repr text, equality and inequality field by field, hashing,
refusal of assignment and deletion; for the caching class, every cached
property computed once and kept, and for the carpet and the scaffold, every
derived table computed again on each read.
"""

from fractions import Fraction as F
from functools import cached_property

import pytest

from coxbound.carpet import (HOLED_DISK, CarpetApprox, CarpetStar, HoledDisk, K5Scaffold,
                             MarkedPoint, StarEmbedding, build_k5_scaffold)
from coxbound.classify import BoundaryClass, ClassificationReport, classify_boundary
from coxbound.davis import DavisBall, LinkGraph, build_davis_ball, vertex_link
from coxbound.nerve import NerveComplex, build_nerve
from coxbound.system import (CoxeterSystem, FiniteTypeVerdict, complete_graph_system,
                             make_system)
from coxbound.words import CayleyBall, CosetTable, NormalForm, cayley_ball

K4 = complete_graph_system(4)
BALL = build_davis_ball(K4, 3)
SCAFFOLD = build_k5_scaffold(2)

# (type, field names in order, one value per field, hashable)
RECORDS = [
    (FiniteTypeVerdict, ("finite", "witness"), (True, ("A2", "A1")), True),
    (BoundaryClass, ("tag", "reason"), ("OutOfScope", "nerve not complete"), True),
    (ClassificationReport,
     ("system", "boundary", "n", "serre_fa", "has_euclidean_triple", "hyperbolic",
      "isolated_flats", "euclidean_triples", "citations"),
     None, True),
    (NormalForm, ("word",), (("s1", "s2"),), True),
    (CosetTable, ("subset", "complete", "order", "cosets_defined", "cap"),
     (("s1", "s2"), True, 6, 7, 100), True),
    (CayleyBall, ("radius", "vertices", "edges", "sphere_sizes"), None, True),
    (DavisBall, ("system", "radius", "vertices", "edges", "faces"), None, True),
    (LinkGraph, ("vertices", "edges", "angles"), None, False),
    (NerveComplex, ("vertices", "simplices", "max_dim", "edge_lengths"), None, False),
    (HoledDisk, ("hole_centers", "hole_radius", "marked"), None, True),
    (StarEmbedding, ("t",), (F(1, 16),), True),
    (MarkedPoint, ("cell", "point"), ((3, 3, 3), (F(1, 3), F(4, 9))), True),
    (CarpetStar, ("center", "legs", "marks"), None, True),
    (CarpetApprox, ("level",), (2,), True),
    (K5Scaffold, ("carpet", "stars"), None, True),
]

# a built instance of each type whose sample values are not listed above
BUILT = {
    ClassificationReport: classify_boundary(K4),
    CayleyBall: cayley_ball(K4, 2),
    DavisBall: BALL,
    LinkGraph: vertex_link(BALL, ()),
    NerveComplex: build_nerve(K4),
    HoledDisk: HOLED_DISK,
    CarpetStar: SCAFFOLD.stars[0],
    K5Scaffold: SCAFFOLD,
}


def _values(cls, names, values):
    if values is None:
        return tuple(getattr(BUILT[cls], name) for name in names)
    return values


@pytest.mark.parametrize("cls, names, values, hashable", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, values, hashable):
    values = _values(cls, names, values)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(getattr(by_keyword, name) for name in names) == values
    assert repr(by_position) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    # one differing field makes the records unequal
    for k, name in enumerate(names):
        other = cls(*values[:k], "other", *values[k + 1:])
        assert other != by_position and not other == by_position, name
    if hashable:
        assert hash(by_position) == hash(by_keyword) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    with pytest.raises(AttributeError):
        setattr(by_position, names[0], values[0])
    with pytest.raises(AttributeError):
        by_position.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(by_position, names[0])
    assert getattr(by_position, names[0]) is values[0]


def test_record_defaults_and_methods():
    assert BoundaryClass("Circle") == BoundaryClass("Circle", None)
    assert BoundaryClass("Circle").reason is None
    assert repr(BoundaryClass("Circle")) == "BoundaryClass(tag='Circle', reason=None)"
    assert str(BoundaryClass("Circle")) == "Circle"
    assert str(BoundaryClass("OutOfScope", "n < 3")) == "OutOfScope(n < 3)"
    disk = HoledDisk()
    assert disk == HOLED_DISK
    assert disk.hole_centers == ((F(-1, 2), F(0)), (F(0), F(1, 2)), (F(0), F(-1, 2)))
    assert disk.hole_radius == F(1, 4)
    assert disk.marked == ((F(-1, 4), F(0)), (F(0), F(1, 4)), (F(0), F(-1, 4)), (F(1), F(0)))
    smaller = HoledDisk(hole_radius=F(1, 8))
    assert smaller.hole_radius == F(1, 8) and smaller.marked == disk.marked
    assert smaller != disk
    assert NormalForm(("s1", "s2")).length == 2
    assert BUILT[CayleyBall].size == 1 + 4 + 12
    nerve = BUILT[NerveComplex]
    assert nerve.dimension == 1 and len(nerve.edges()) == 6
    star = StarEmbedding(F(1, 16))
    assert star.center == (F(1, 16), F(-1, 16))
    assert star.leg(4) == (star.center, (F(1), F(0)))
    report = BUILT[ClassificationReport]
    assert len(report.triangle_census) == 4


def _cached(cls) -> set[str]:
    return {name for name, value in vars(cls).items() if isinstance(value, cached_property)}


def _computed_once(make, names):
    """Each name, read on a fresh object from `make`, is computed on first
    read and kept in the instance dict."""
    for name in sorted(names):
        obj = make()
        assert name not in vars(obj), name
        first = getattr(obj, name)
        assert vars(obj)[name] is first, name
        assert getattr(obj, name) is first, name


def _computed_on_each_read(obj, names):
    """Each name, read twice on the record `obj`, gives equal values that are
    distinct objects: nothing is kept between reads."""
    for name in names:
        first, again = getattr(obj, name), getattr(obj, name)
        assert again == first and again is not first, name


def test_coxeter_system_contract():
    gens = ("a", "b", "c")
    s = CoxeterSystem(gens, {("a", "b"): 3})
    assert s == CoxeterSystem(generators=gens, orders={("b", "a"): 3})
    assert s == make_system("abc", {("a", "b"): 3, ("b", "a"): 3})
    assert repr(s) == ("CoxeterSystem(generators=('a', 'b', 'c'), "
                       "orders={('a', 'b'): 3, ('b', 'a'): 3})")
    relabelled = CoxeterSystem(gens, {("a", "b"): 4})
    renamed = CoxeterSystem(("a", "b", "d"), {("a", "b"): 3})
    assert s != relabelled and s != renamed and not s == relabelled
    # the hash reads the generators only
    assert hash(s) == hash(relabelled) == hash((gens,))
    assert hash(renamed) == hash((("a", "b", "d"),))
    assert len({s, relabelled, renamed, CoxeterSystem(gens, {("a", "b"): 3})}) == 3
    # equality needs the same class
    assert s != (gens, s.orders)

    class Sub(CoxeterSystem):
        pass

    assert Sub(gens, {("a", "b"): 3}) != s
    with pytest.raises(AttributeError):
        s.generators = ("x",)
    with pytest.raises(AttributeError):
        s.orders = {}
    with pytest.raises(AttributeError):
        s.label_rows = ()
    with pytest.raises(AttributeError):
        s.not_a_field = 1
    with pytest.raises(AttributeError):
        del s.orders
    assert s.orders == {("a", "b"): 3, ("b", "a"): 3}
    assert _cached(CoxeterSystem) == {"_finite_pairs", "non_hyperbolic_triples"}
    _computed_once(lambda: complete_graph_system(4), _cached(CoxeterSystem))


def test_carpet_approx_contract():
    c = CarpetApprox(2)
    assert c == CarpetApprox(level=2) and not c != CarpetApprox(2)
    assert c != CarpetApprox(3) and not c == CarpetApprox(3)
    assert c == (2,)                # a record equals the tuple of its values
    assert repr(c) == "CarpetApprox(level=2)"
    assert hash(c) == hash(CarpetApprox(2)) == hash((2,))
    with pytest.raises(AttributeError):
        c.level = 3
    with pytest.raises(AttributeError):
        c.kept = ()
    with pytest.raises(AttributeError):
        del c.level
    assert c.level == 2
    assert not hasattr(c, "__dict__") and _cached(CarpetApprox) == set()
    _computed_on_each_read(c, ("kept", "removed"))


def test_k5_scaffold_contract():
    s = SCAFFOLD
    same = K5Scaffold(carpet=CarpetApprox(2), stars=s.stars)
    assert s == K5Scaffold(s.carpet, s.stars) == same
    seeded = build_k5_scaffold(2, seed=0)
    assert seeded.stars != s.stars
    assert s != K5Scaffold(s.carpet, seeded.stars) and not s == seeded
    assert s != K5Scaffold(CarpetApprox(3), s.stars)
    assert s == (s.carpet, s.stars)
    assert repr(s) == f"K5Scaffold(carpet=CarpetApprox(level=2), stars={s.stars!r})"
    assert hash(s) == hash(same) == hash((s.carpet, s.stars))
    with pytest.raises(AttributeError):
        s.stars = ()
    with pytest.raises(AttributeError):
        s.marks = {}
    with pytest.raises(AttributeError):
        del s.carpet
    assert s.level == 2
    assert not hasattr(s, "__dict__") and _cached(K5Scaffold) == set()
    _computed_on_each_read(s, ("marks", "edges"))
