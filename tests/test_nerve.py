import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbound.classify import classify_boundary
from coxbound.nerve import (NerveComplex, build_nerve, edge_length_fraction,
                            is_complete_1d_nerve, nerve_to_json)
from coxbound.system import (INF, SPHERICAL, _triangle, complete_graph_system,
                             is_finite_type, make_system)
from test_system import fraction_kind


# --- nerve construction ---------------------------------------------------------

def test_complete_graph_nerve():
    for n in (3, 4, 5):
        nerve = build_nerve(complete_graph_system(n))
        assert nerve.dimension == 1
        assert len(nerve.edges()) == n * (n - 1) // 2
        ok, size = is_complete_1d_nerve(nerve)
        assert ok and size == n
    with pytest.raises(ValueError, match="^max_dim must be >= 1$"):
        build_nerve(complete_graph_system(3), 0)


def test_edge_lengths():
    sysm = complete_graph_system(3, labels={("s1", "s2"): 5})
    nerve = build_nerve(sysm)
    assert nerve.edge_lengths[("s1", "s2")] == Fraction(4, 5)
    assert nerve.edge_lengths[("s1", "s3")] == Fraction(2, 3)
    assert edge_length_fraction(2) == Fraction(1, 2)


def test_nerve_with_spherical_triple_has_triangle():
    # (2,3,3) is finite, so {x,y,z} spans a 2-simplex
    sysm = make_system("xyz", {("x", "y"): 2, ("y", "z"): 3, ("x", "z"): 3})
    nerve = build_nerve(sysm)
    assert nerve.dimension == 2
    assert ("x", "y", "z") in nerve.simplices


def test_downward_closure():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(3, 6)
        labels = {}
        gens = [f"s{i+1}" for i in range(n)]
        for a, b in combinations(gens, 2):
            labels[(a, b)] = rng.choice([2, 3, 4, 5])
        nerve = build_nerve(make_system(gens, labels))
        simplices = set(nerve.simplices)
        for simp in simplices:
            for face in combinations(simp, len(simp) - 1):
                if len(face) >= 2:
                    assert face in simplices


def test_infinite_pair_omitted():
    sysm = make_system("abc", {("a", "b"): 3, ("b", "c"): 3})  # a,c infinite
    nerve = build_nerve(sysm)
    assert ("a", "c") not in nerve.edges()
    assert nerve.dimension == 1


def test_nerve_json_deterministic():
    sysm = complete_graph_system(4)
    j1 = nerve_to_json(sysm, build_nerve(sysm))
    j2 = nerve_to_json(sysm, build_nerve(sysm))
    assert j1 == j2
    assert '"dimension": 1' in j1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nerve_matches_brute_force_finite_subsets(data):
    # the nerve decides pairs and triples from the labels; the oracle puts
    # every subset of each size, in combinations order, through diagram matching
    rank = data.draw(st.integers(2, 7), label="rank")
    gens = [f"s{i + 1}" for i in range(rank)]
    label = st.sampled_from([2, 3, 4, 5, 6, 7, INF])
    sysm = make_system(gens, {pair: data.draw(label) for pair in combinations(gens, 2)})
    max_dim = data.draw(st.integers(1, 3), label="max_dim")
    expected = [subset for size in range(2, max_dim + 2)
                for subset in combinations(gens, size)
                if is_finite_type(sysm, subset).finite]
    assert build_nerve(sysm, max_dim).simplices == tuple(expected)


def test_nerve_tetrahedra_match_brute_force():
    # every rank-4 system with labels 2-5: 135 of them have four spherical
    # triples but an infinite whole (affine diagrams such as the 4-cycle of 3s),
    # which random labels above almost never draw
    gens = "abcd"
    pairs = list(combinations(gens, 2))
    for labels in product([2, 3, 4, 5], repeat=len(pairs)):
        sysm = make_system(gens, dict(zip(pairs, labels)))
        expected = [subset for size in (2, 3, 4) for subset in combinations(gens, size)
                    if is_finite_type(sysm, subset).finite]
        assert build_nerve(sysm, 3).simplices == tuple(expected), labels


# --- the generic level walk against the label-matrix nerve ---------------------
#
# The walk below is `build_nerve` as it was before it read label rows and bit
# masks: every level extends the previous one by a later generator, keeps the
# candidates whose facets are all stored, and decides them by name (an edge by
# its label, a triple by its `Fraction` reciprocal sum, larger subsets by
# diagram matching).

def _walk_nerve(sys, max_dim=2):
    gens = sys.generators
    simplices = []
    edge_lengths = {}
    prev_level = [(g,) for g in gens]
    for size in range(2, max_dim + 2):
        prev_set = set(prev_level)
        level = []
        for base in prev_level:
            last = sys.index(base[-1])
            for g in gens[last + 1:]:
                cand = base + (g,)
                if any(cand[:i] + cand[i + 1:] not in prev_set for i in range(size - 1)):
                    continue
                if _walk_finite_type(sys, cand):
                    level.append(cand)
        if not level:
            break
        simplices.extend(level)
        prev_level = level
    for s, t in sys.pairs():
        m = sys.m(s, t)
        if m != INF:
            edge_lengths[(s, t)] = edge_length_fraction(int(m))
    return NerveComplex(gens, tuple(simplices), max_dim, edge_lengths)


def _walk_finite_type(sys, cand):
    if len(cand) == 2:
        return sys.m(*cand) != INF
    if len(cand) == 3:
        return _fraction_kind(sys, cand) == SPHERICAL
    return is_finite_type(sys, cand).finite


def _fraction_kind(sys, trip):
    return fraction_kind([sys.m(s, t) for s, t in combinations(trip, 2)])


_NAME_POOL = ["a", "b", "c", "d", "e", "f", "g", "h", "x1", "x2", "zz", "Q"]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_nerve_and_census_match_level_walk(data):
    rank = data.draw(st.integers(1, 8), label="rank")
    gens = data.draw(st.permutations(_NAME_POOL), label="names")[:rank]
    # integer and float labels
    label = st.sampled_from([2, 3, 4, 5, 6, 7, INF, 2.0, 3.0, 4.0, 6.0])
    sysm = make_system(gens, {pair: data.draw(label) for pair in combinations(gens, 2)})
    max_dim = data.draw(st.integers(1, 4), label="max_dim")
    nerve = build_nerve(sysm, max_dim)
    expected = _walk_nerve(sysm, max_dim)
    assert nerve == expected
    assert list(nerve.edge_lengths) == list(expected.edge_lengths)
    assert nerve_to_json(sysm, nerve) == nerve_to_json(sysm, expected)
    census = classify_boundary(sysm).triangle_census
    assert [trip for trip, _ in census] == list(combinations(gens, 3))
    for trip, kind in census:
        assert kind == _fraction_kind(sysm, trip), trip


def test_sparse_nerve_builds_no_census():
    # a path of 3s with one extra label 2: the only candidate triple is the
    # one the extra edge closes, and the level walk read all C(24, 3) = 2,024
    gens = [f"s{i + 1}" for i in range(24)]
    labels = {(a, b): 3 for a, b in zip(gens, gens[1:])}
    labels[("s10", "s12")] = 2
    sysm = make_system(gens, labels)
    _triangle.cache_clear()
    nerve = build_nerve(sysm)
    info = _triangle.cache_info()
    assert info.hits + info.misses == 1
    assert len(nerve.edges()) == 24
    assert [s for s in nerve.simplices if len(s) == 3] == [("s10", "s11", "s12")]
