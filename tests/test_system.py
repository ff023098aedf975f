import copy
import pickle
from fractions import Fraction
from itertools import combinations, product

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxbound.system import (HYPERBOLIC, INF, CoxeterSystem, PresentationError,
                             complete_graph_system, cosine_matrix, finite_coxeter_order,
                             format_system, geometric_representation, irreducible_components,
                             is_finite_type, make_system, parse_system, subgroup_order,
                             triangle_type)
from coxbound.words import (WordContext, coxeter_relators, tits_normal_form,
                            todd_coxeter_enumerate)


def triangle(a, b, c):
    return make_system("xyz", {("x", "y"): a, ("y", "z"): b, ("x", "z"): c})


def chain(*labels):
    """Linear-diagram system: consecutive labels given, all other pairs commute."""
    gens = "abcdefgh"[: len(labels) + 1]
    lab = {(s, t): 2 for i, s in enumerate(gens) for t in gens[i + 1:]}
    for i, m in enumerate(labels):
        lab[(gens[i], gens[i + 1])] = m
    return make_system(gens, lab)


def test_parse_roundtrip():
    text = "gens a b c\na b 3\nb c 4\na c inf\n"
    sysm = parse_system(text)
    assert sysm.generators == ("a", "b", "c")
    assert sysm.m("a", "b") == 3
    assert sysm.m("b", "a") == 3
    assert sysm.m("a", "c") == INF
    assert parse_system(format_system(sysm)) == sysm


def test_parse_comments_and_default_order():
    sysm = parse_system("# comment\ngens a b c\na b 5\n")
    # unlisted pairs default to infinite order
    assert sysm.m("a", "c") == INF
    assert sysm.m("b", "c") == INF
    # explicit inf and implicit inf give equal systems
    assert parse_system("gens a b c\na b 5\na c inf\n") == sysm


@pytest.mark.parametrize("bad", [
    "a b 3\n",                       # no gens line
    "gens a b\na b 1\n",             # order < 2
    "gens a b\na c 3\n",             # unknown generator
    "gens a a\n",                    # duplicate generator
    "gens a b\na b x\n",             # non-numeric label
])
def test_parse_rejects(bad):
    with pytest.raises(PresentationError):
        parse_system(bad)


def test_parse_pair_either_way_round():
    with pytest.raises(PresentationError) as excinfo:
        parse_system("gens a b\na b 3\nb a 4\n")
    assert str(excinfo.value) == "line 3: conflicting label for pair (b,a)"
    assert parse_system("gens a b\na b 3\nb a 3\n") == parse_system("gens a b\nb a 3\n")
    assert parse_system("gens a b\nb a 3\n").m("a", "b") == 3


def test_system_construction_errors():
    # each entry is checked in `orders` order: diagonal, membership, range, symmetry
    cases = [
        (("a", "a"), {}, "duplicate generator"),
        (("a", "b"), {("z", "z"): 3, ("a", "b"): 3, ("b", "a"): 4},
         "diagonal entry for z not allowed"),
        (("a", "b"), {("a", "c"): 3, ("c", "a"): 3}, "unknown generator in pair (a,c)"),
        (("a", "b"), {("b", "a"): 3, ("a", "c"): 1}, "unknown generator in pair (a,c)"),
        (("a", "b"), {("a", "b"): 1, ("b", "a"): 1}, "label m(a,b) = 1 out of range (>= 2 or inf)"),
        # the range test runs before int(): NaN and -inf must not escape as
        # ValueError and OverflowError
        *((("a", "b"), {("a", "b"): m}, f"label m(a,b) = {m} out of range (>= 2 or inf)")
          for m in (float("nan"), -INF, 2.5, 0)),
        (("a", "b"), {("a", "b"): 3, ("b", "a"): 4}, "asymmetric labels for pair (a,b)"),
        (("a", "b", "c"), {("b", "c"): 3, ("c", "b"): 3, ("a", "b"): 5, ("b", "a"): 3},
         "asymmetric labels for pair (a,b)"),
    ]
    for gens, orders, message in cases:
        with pytest.raises(PresentationError) as excinfo:
            CoxeterSystem(gens, orders)
        assert str(excinfo.value) == message


def test_label_rows_and_masks():
    sysm = make_system("dcba", {("d", "c"): 2, ("d", "b"): 3, ("c", "a"): 4.0, ("b", "a"): 5})
    assert sysm.label_rows == ((1, 2, 3, INF), (2, 1, INF, 4.0), (3, INF, 1, 5), (INF, 4.0, 5, 1))
    assert type(sysm.label_rows[1][3]) is int
    assert sysm.finite_masks == (0b0110, 0b1001, 0b1001, 0b0110)
    # diagram neighbours: m >= 3, infinity included
    assert sysm.diagram_index == ({"d": 0, "c": 1, "b": 2, "a": 3},
                                  (0b1100, 0b1100, 0b1011, 0b0111))


def test_triangle_type_trichotomy():
    assert triangle_type(triangle(2, 3, 5), "xyz") == "Spherical"
    assert triangle_type(triangle(3, 3, 3), "xyz") == "Euclidean"
    assert triangle_type(triangle(2, 3, 7), "xyz") == "Hyperbolic"
    assert triangle_type(triangle(2, 3, INF), "xyz") == "Hyperbolic"


def fraction_kind(ms):
    """The triangle type of labels ms from their reciprocal sum as a Fraction
    compared with 1 (an infinite label adds 0): the oracle of `triangle_type`."""
    total = sum((Fraction(1, int(m)) for m in ms if m != INF), Fraction(0))
    return "Spherical" if total > 1 else "Euclidean" if total == 1 else "Hyperbolic"


def test_triangle_kind_matches_fraction_sum():
    """The integer comparison agrees with the Fraction reciprocal sum on every
    label triple over {2, ..., 12, inf}."""
    labels = list(range(2, 13)) + [INF]
    for ms in product(labels, repeat=3):
        assert triangle_type(triangle(*ms), "xyz") == fraction_kind(ms), ms


_NAME_POOL = ["a", "b", "c", "d", "e", "f", "g", "h"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_non_hyperbolic_triples_match_census(data):
    # the label-2 and label-3 masks find exactly the triples whose Fraction
    # reciprocal sum is at least 1: the same positions and kinds, in
    # `combinations` order
    rank = data.draw(st.integers(1, 8), label="rank")
    gens = data.draw(st.permutations(_NAME_POOL), label="names")[:rank]
    label = st.sampled_from([2, 3, 4, 5, 6, 7, INF, 2.0, 3.0, 4.0, 6.0])
    sysm = make_system(gens, {pair: data.draw(label) for pair in combinations(gens, 2)})
    census = [((i, j, k), fraction_kind((sysm.m(r, s), sysm.m(s, t), sysm.m(r, t))))
              for (i, r), (j, s), (k, t) in combinations(enumerate(gens), 3)]
    expected = [(*ijk, kind) for ijk, kind in census if kind != HYPERBOLIC]
    assert list(sysm.non_hyperbolic_triples) == expected


def test_non_hyperbolic_triples_examples():
    assert len(complete_graph_system(6).non_hyperbolic_triples) == 20      # C(6, 3) of (3, 3, 3)
    assert complete_graph_system(6, label=4).non_hyperbolic_triples == ()
    # (2, 2, inf) is Euclidean by the integer rule; (2, 3, inf) is hyperbolic
    sysm = make_system("abcd", {("a", "b"): 2, ("b", "c"): 2, ("c", "d"): 3})
    assert sysm.non_hyperbolic_triples == ((0, 1, 2, "Euclidean"),)


def test_irreducible_components():
    sysm = make_system("abcd", {("a", "b"): 3, ("c", "d"): 5,
                                ("a", "c"): 2, ("a", "d"): 2,
                                ("b", "c"): 2, ("b", "d"): 2})
    comps = irreducible_components(sysm, "abcd")
    assert sorted(map(sorted, comps)) == [["a", "b"], ["c", "d"]]
    # an infinite label joins components
    joined = make_system("abc", {("a", "b"): 3, ("b", "c"): 2})
    assert len(irreducible_components(joined, "abc")) == 1
    # components and their members follow generator order, not name order;
    # a name outside the system is rejected
    rev = make_system("dcba", {("d", "c"): 2, ("d", "b"): 2, ("d", "a"): 3,
                               ("c", "b"): 5, ("c", "a"): 2, ("b", "a"): 2})
    assert irreducible_components(rev, "abcd") == [("d", "a"), ("c", "b")]
    with pytest.raises(ValueError, match="^'z' is not a generator$"):
        irreducible_components(rev, "abcdz")
    assert rev.index("a") == 3
    with pytest.raises(ValueError):
        rev.index("z")


# orders of the classified finite groups, from the standard tables
KNOWN_ORDERS = {
    (2, 2, 2): 8,          # A1^3
    (2, 3, 3): 24,         # A3
    (2, 3, 4): 48,         # B3
    (2, 3, 5): 120,        # H3
    (2, 2, 7): 28,         # I2(7) x A1
}


@pytest.mark.parametrize("triple,order", sorted(KNOWN_ORDERS.items()))
def test_finite_triangle_orders(triple, order):
    sysm = triangle(*triple)
    verdict = is_finite_type(sysm, "xyz")
    assert verdict.finite
    assert subgroup_order(sysm, "xyz") == order


@pytest.mark.parametrize("triple", [(3, 3, 3), (2, 3, 6), (2, 4, 4), (2, 3, 7), (4, 4, 4)])
def test_infinite_triangles(triple):
    sysm = triangle(*triple)
    assert not is_finite_type(sysm, "xyz").finite
    assert subgroup_order(sysm, "xyz") is None


def test_rank4_orders():
    assert subgroup_order(chain(3, 3, 3), "abcd") == 120     # A4 = Sym(5)
    assert subgroup_order(chain(4, 3, 3), "abcd") == 384     # B4
    assert subgroup_order(chain(3, 4, 3), "abcd") == 1152    # F4
    assert subgroup_order(chain(5, 3, 3), "abcd") == 14400   # H4
    d4 = make_system("abcd", {("a", "b"): 3, ("a", "c"): 3, ("a", "d"): 3,
                              ("b", "c"): 2, ("b", "d"): 2, ("c", "d"): 2})
    assert subgroup_order(d4, "abcd") == 192
    affine = make_system("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3,
                                  ("a", "d"): 3, ("a", "c"): 2, ("b", "d"): 2})
    assert subgroup_order(affine, "abcd") is None


def test_higher_rank_orders():
    assert subgroup_order(chain(3, 3, 3, 3), "abcde") == 720              # A5
    assert subgroup_order(chain(3, 3, 3, 3, 3), "abcdef") == 5040         # A6
    assert subgroup_order(chain(4, 3, 3, 3), "abcde") == 3840             # B5
    e6 = chain(3, 3, 3, 3)
    lab = dict(e6.orders)
    # attach f to the middle node c with a 3 (other pairs commute)
    gens = "abcdef"
    for g in "abcde":
        lab[(g, "f")] = lab[("f", g)] = 2
    lab[("c", "f")] = lab[("f", "c")] = 3
    assert subgroup_order(make_system(gens, lab), gens) == 51840          # E6
    with pytest.raises(ValueError, match="^unknown diagram X3$"):
        finite_coxeter_order("X3")


def test_complete_graph_system():
    sysm = complete_graph_system(4)
    assert sysm.rank == 4
    assert all(sysm.m(s, t) == 3 for s, t in sysm.pairs())
    mixed = complete_graph_system(3, labels={("s1", "s2"): 5})
    assert mixed.m("s1", "s2") == 5
    assert mixed.m("s2", "s3") == 3


def test_complete_graph_override_either_way_round():
    swapped = complete_graph_system(3, labels={("s2", "s1"): 5})
    assert swapped.m("s1", "s2") == swapped.m("s2", "s1") == 5
    assert swapped.m("s2", "s3") == 3
    assert swapped == complete_graph_system(3, labels={("s1", "s2"): 5})
    with pytest.raises(PresentationError):
        complete_graph_system(3, labels={("s1", "s2"): 5, ("s2", "s1"): 4})


def test_names_outside_the_system_rejected():
    sysm = triangle(2, 3, 5)
    with pytest.raises(ValueError):
        triangle_type(sysm, "xyw")
    with pytest.raises(ValueError):
        coxeter_relators(sysm, "xw")
    with pytest.raises(ValueError, match="^letter 'zz' is not a generator$"):
        tits_normal_form(sysm, ["zz"])
    with pytest.raises(ValueError, match="^triangle_type needs exactly 3 distinct generators$"):
        triangle_type(sysm, ("x", "x", "y"))
    for s, t in (("x", "w"), ("w", "x"), ("w", "w")):
        with pytest.raises(ValueError, match="^'w' is not a generator$"):
            sysm.m(s, t)
    with pytest.raises(ValueError, match="^'w' is not a generator$"):
        irreducible_components(sysm, "xwy")
    # the first name that is not a generator, as `todd_coxeter_enumerate` names it
    k3 = complete_graph_system(3)
    for subset in (["bogus"], ["s1", "bogus"], ["s2", "bogus", "x"]):
        for decide in (is_finite_type, subgroup_order):
            with pytest.raises(ValueError, match="^'bogus' is not a generator$"):
                decide(k3, subset)


def test_one_sided_orders_are_closed():
    """A pair given one way round in `orders` has its label both ways, as if
    `make_system` had been given the same labels."""
    labels = {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 2}
    one_sided = CoxeterSystem(("a", "b", "c"), labels)
    assert one_sided.m("b", "a") == 3
    assert one_sided.orders == {**labels, ("b", "a"): 3, ("c", "b"): 3, ("c", "a"): 2}
    assert one_sided == make_system("abc", labels)
    assert WordContext(one_sided).small_root_count == 6       # A3 has 6 reflections
    assert tits_normal_form(one_sided, "cbc").word == ("b", "c", "b")
    # infinite labels are dropped, given either way round
    assert CoxeterSystem(("a", "b"), {("b", "a"): INF}).orders == {}


def test_make_system_rejects_asymmetric_labels():
    with pytest.raises(PresentationError) as excinfo:
        make_system("ab", {("a", "b"): 3, ("b", "a"): 4})
    assert str(excinfo.value) == "asymmetric labels for pair (a,b)"
    assert make_system("ab", {("a", "b"): 3, ("b", "a"): 3}) == make_system("ab", {("b", "a"): 3})


def test_cosine_matrix_values():
    sysm = triangle(2, 3, 4)
    B = cosine_matrix(sysm)
    assert B[0][0] == 1.0
    assert B[0][1] == pytest.approx(-math.cos(math.pi / 2))
    assert B[1][2] == pytest.approx(-math.cos(math.pi / 3))
    assert B[0][2] == pytest.approx(-math.cos(math.pi / 4))


@pytest.mark.parametrize("labels", [(2, 3, 4), (2, 3, 7), (5, 5, INF)])
def test_geometric_representation_is_the_tits_representation(labels):
    """Each rho(s) is an involution that preserves B, changes only row s, and
    rho(s) rho(t) has order m_st."""
    sysm = triangle(*labels)
    B = np.array(cosine_matrix(sysm))
    rhos = [np.array(rho) for rho in geometric_representation(sysm)]
    rows = sysm.label_rows
    for s, rho in enumerate(rhos):
        assert np.allclose(rho @ rho, np.eye(3))
        assert np.allclose(rho.T @ B @ rho, B)
        assert np.array_equal(np.delete(rho, s, axis=0), np.delete(np.eye(3), s, axis=0))
        for t in range(s + 1, 3):
            if rows[s][t] != INF:
                m = int(rows[s][t])
                power = np.linalg.matrix_power(rho @ rhos[t], m)
                assert np.allclose(power, np.eye(3))
                assert not any(np.allclose(np.linalg.matrix_power(rho @ rhos[t], k), np.eye(3))
                               for k in range(1, m))


# --- properties ---------------------------------------------------------------

@st.composite
def small_systems(draw, max_rank=4):
    """Systems of rank <= 4 with labels from {2, ..., 6, inf}."""
    n = draw(st.integers(1, max_rank), label="rank")
    gens = "abcd"[:n]
    labels = {(s, t): draw(st.sampled_from([2, 3, 4, 5, 6, INF]))
              for i, s in enumerate(gens) for t in gens[i + 1:]}
    return make_system(gens, labels)


# the largest finite group drawn is H4 (order 14400); its enumeration defines
# at most 16,536 cosets over every generator order
COSET_CAP = 20_000


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_finite_type_matches_todd_coxeter(data):
    sysm = data.draw(small_systems(), label="system")
    subset = data.draw(st.lists(st.sampled_from(sysm.generators), min_size=1,
                                unique=True), label="subset")
    table = todd_coxeter_enumerate(sysm, subset, cap=COSET_CAP)
    if is_finite_type(sysm, subset).finite:
        assert table.complete
        assert table.order == subgroup_order(sysm, subset)
    else:
        assert not table.complete
        assert table.order is None


def _gram_finite(sysm):
    """Finite iff the cosine matrix is positive definite.  At rank <= 9 with
    finite labels <= 6 a finite type's least eigenvalue is at least
    1 - cos(pi/30) ~ 0.0055 (E8, H4), and an infinite one's is <= 0, so the
    float eigenvalues decide it with room to spare."""
    return np.linalg.eigvalsh(cosine_matrix(sysm))[0] > 1e-9


@st.composite
def tree_biased_systems(draw):
    """Rank 5-9 systems drawn around a random tree: generator k > 0 is joined
    to an earlier one (often the previous) by a label from {2, ..., 6}, and up
    to two more pairs get a label from {3, ..., 6, inf}; other pairs commute."""
    n = draw(st.integers(5, 9), label="rank")
    gens = "abcdefghi"[:n]
    labels = {(s, t): 2 for i, s in enumerate(gens) for t in gens[i + 1:]}
    for k in range(1, n):
        parent = k - 1 if draw(st.booleans()) else draw(st.integers(0, k - 1))
        labels[(gens[parent], gens[k])] = draw(st.sampled_from([2, 3, 3, 3, 3, 4, 5, 6]))
    for _ in range(draw(st.integers(0, 2), label="extra pairs")):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        labels[(gens[i], gens[j])] = draw(st.sampled_from([3, 4, 5, 6, INF]))
    return make_system(gens, labels)


@settings(max_examples=400, deadline=None)
@given(tree_biased_systems())
def test_finite_type_matches_gram_matrix(sysm):
    assert is_finite_type(sysm, sysm.generators).finite == _gram_finite(sysm)


def _tree(edges):
    """A system on the letters of `edges` ("ab bc ..."), each joined pair
    labelled 3 and the others 2."""
    gens = sorted(set(edges.replace(" ", "")))
    labels = {(s, t): 2 for i, s in enumerate(gens) for t in gens[i + 1:]}
    labels.update({(e[0], e[1]): 3 for e in edges.split()})
    return make_system(gens, labels)


# simply-laced affine diagrams: two branch points or a node of degree 4
# (D~4, D~6), or a branch point whose arms are neither (1, 1, k) nor
# (1, 2, 2..4) (E~6, E~7, E~8)
AFFINE_TREES = {
    "D~4": "ab ac ad ae",
    "D~6": "ab ac ad de ef eg",
    "E~6": "ab bc cd de cf fg",
    "E~7": "ab bc cd de ef fg dh",
    "E~8": "ab bc cd de ef fg gh ci",
}


@pytest.mark.parametrize("name", sorted(AFFINE_TREES))
def test_affine_trees_are_infinite(name):
    sysm = _tree(AFFINE_TREES[name])
    assert not is_finite_type(sysm, sysm.generators).finite
    assert not _gram_finite(sysm)
    # every proper subdiagram of an affine diagram is spherical
    for g in sysm.generators:
        rest = [h for h in sysm.generators if h != g]
        assert is_finite_type(sysm, rest).finite


# generator names are any tokens without whitespace or "#"
_NAMES = st.text(alphabet="abcxyzAB_019", min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_format_roundtrip(data):
    gens = data.draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True), label="gens")
    label = st.integers(2, 1000) | st.just(INF)
    labels = {(s, t): data.draw(label)
              for i, s in enumerate(gens) for t in gens[i + 1:]}
    sysm = make_system(gens, labels)
    text = format_system(sysm)
    assert parse_system(text) == sysm
    assert format_system(parse_system(text)) == text


# --- one label store ------------------------------------------------------------

def test_handed_out_labels_cannot_change_the_system():
    """`orders` is a new dict on each read and the position index refuses
    writes, so neither can make a system disagree with itself."""
    a = make_system("abc", {("a", "b"): 3, ("b", "c"): 3})
    b = make_system("abc", {("a", "b"): 3, ("b", "c"): 3})
    text, index = repr(a), dict(a.diagram_index[0])
    word = tits_normal_form(a, "aba")
    handed = a.orders
    assert handed is not a.orders
    handed[("a", "b")] = 7
    del handed[("b", "c")]
    with pytest.raises(TypeError):
        a.diagram_index[0]["a"] = 2
    assert a == b and hash(a) == hash(b) and repr(a) == text
    assert a.orders == b.orders == {("a", "b"): 3, ("b", "a"): 3, ("b", "c"): 3, ("c", "b"): 3}
    assert a.m("a", "b") == 3 and a.index("a") == 0
    assert a.diagram_index[0] == index
    assert tits_normal_form(a, "aba") == word
    assert tits_normal_form(a, "a").word == ("a",)
    # the generators are kept as a tuple, whatever sequence they came in
    names = ["a", "b", "c"]
    listed = CoxeterSystem(names, {("a", "b"): 3, ("b", "c"): 3})
    names.append("d")
    assert listed.generators == ("a", "b", "c") and listed == a and hash(listed) == hash(a)


def test_labels_stored_as_int_both_ways():
    sysm = CoxeterSystem(("a", "b"), {("a", "b"): 3, ("b", "a"): 3.0})
    assert sysm.label_rows == ((1, 3), (3, 1))
    assert [type(m) for row in sysm.label_rows for m in row] == [int] * 4
    assert type(sysm.m("b", "a")) is int
    assert repr(sysm) == "CoxeterSystem(generators=('a', 'b'), orders={('a', 'b'): 3, ('b', 'a'): 3})"
    # numpy ints and Fractions are read the same way
    assert make_system("ab", {("b", "a"): np.int64(5)}) == make_system("ab", {("a", "b"): Fraction(5)})


def _int_or_inf_rows(sysm):
    return all(m == INF or type(m) is int for row in sysm.label_rows for m in row)


def test_every_construction_path_stores_int_labels():
    systems = [
        CoxeterSystem(("a", "b", "c"), {("a", "b"): 4.0, ("c", "b"): Fraction(3)}),
        make_system("abc", {("a", "b"): 2.0, ("b", "a"): 2, ("a", "c"): INF}),
        complete_graph_system(4, label=3.0, labels={("s2", "s1"): Fraction(6), ("s3", "s4"): 4.0}),
        parse_system("gens a b c\na b 3\nb c inf\nc a 6\n"),
    ]
    for sysm in systems:
        assert _int_or_inf_rows(sysm), sysm
        assert all(row == col for row, col in zip(sysm.label_rows, zip(*sysm.label_rows)))


def test_copies_rebuild_the_system():
    sysm = complete_graph_system(4, labels={("s1", "s2"): 2, ("s3", "s4"): INF})
    for again in (copy.deepcopy(sysm), pickle.loads(pickle.dumps(sysm))):
        assert again == sysm and again.label_rows == sysm.label_rows
        assert again.diagram_index == sysm.diagram_index


def closed_orders(orders):
    """The name-keyed label store as the constructor once kept it: the
    symmetric closure of the finite labels, each pair as given, its reverse
    as given or as its mirror."""
    closed = {}
    for (s, t), m in orders.items():
        if m != INF:
            closed[s, t] = m
            closed[t, s] = orders.get((t, s), m)
    return closed


_LABELS = [2, 3, 4, 5, 6, 7, INF, 2.0, 3.0, 4.0, 5.0, 6.0, Fraction(3)]


def _labels(data, gens, values):
    """`values` (one per pair of `gens`) given one way round, the other, or
    both, the second time in a form drawn among the equal ones."""
    orders = {}
    for (s, t), m in zip(combinations(gens, 2), values):
        way = data.draw(st.sampled_from(["st", "ts", "both"]))
        if way != "ts":
            orders[s, t] = m
        if way != "st":
            forms = [m] if m == INF else [m, int(m), float(m), Fraction(int(m))]
            orders[t, s] = data.draw(st.sampled_from(forms))
    return orders


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_store_matches_closed_dict_oracle(data):
    gens = data.draw(st.permutations(_NAME_POOL), label="names")[:data.draw(st.integers(1, 6))]
    values = [data.draw(st.sampled_from(_LABELS)) for _ in combinations(gens, 2)]
    first = _labels(data, gens, values)
    if not data.draw(st.booleans(), label="same labels"):
        values = [data.draw(st.sampled_from([m, 2, INF])) for m in values]
    second = _labels(data, gens, values)
    a, b = CoxeterSystem(tuple(gens), first), make_system(gens, second)
    assert a.orders == closed_orders(first) and b.orders == closed_orders(second)
    for sysm in (a, b):
        assert _int_or_inf_rows(sysm)
        assert all(row == col for row, col in zip(sysm.label_rows, zip(*sysm.label_rows)))
        assert hash(sysm) == hash((tuple(gens),))
    assert (a == b) == (closed_orders(first) == closed_orders(second))
