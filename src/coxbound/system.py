"""Coxeter systems: presentation parsing, diagram combinatorics, finiteness.

A system is a finite generating set S together with a symmetric order matrix
m_st taking values in {2, 3, ...} or infinity (m_ss = 1 implicitly).  All
finiteness decisions are made exactly: triangle types by an integer comparison
of the labels, other subsets by matching irreducible diagram components against
the classified finite types; no floating point is involved anywhere except in
`cosine_matrix` and `geometric_representation`, which exist for rendering and
return plain tuples of float rows.

A `CoxeterSystem` is checked and indexed once, when it is built, and this
module is the only one that knows how its labels are stored: the other
modules read them by generator position, through `label_rows`,
`finite_masks`, `diagram_index`, the finite pairs and the non-hyperbolic
triples.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional

INF = math.inf


class PresentationError(ValueError):
    """Raised for malformed presentation text or order matrices."""


class _Frozen:
    """Instances refuse assignment and deletion.  A constructor stores its
    fields in the instance dict, where `cached_property` also keeps what it
    computes; neither goes through `__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CoxeterSystem(_Frozen):
    """Generators plus symmetric order matrix; immutable after construction.

    `orders` may give a pair one way round or both.  Construction checks each
    entry, keeps the symmetric closure of the finite labels in `orders`, and
    in the same pass fills `label_rows` (m_st by position: 1 on the diagonal,
    INF for unlisted pairs, finite labels as given), `finite_masks` (per
    position, the bit mask of the t with m_st finite) and `diagram_index`
    (each generator's position, and per position the bit mask of its diagram
    neighbours: m_st >= 3, infinity included).
    """

    def __init__(self, generators: tuple[str, ...], orders: dict[tuple[str, str], float]):
        n = len(generators)
        position = {g: i for i, g in enumerate(generators)}
        if len(position) != n:
            raise PresentationError("duplicate generator")
        closed = {}
        rows = [[INF] * n for _ in range(n)]
        finite = [0] * n
        two = [0] * n
        for (s, t), m in orders.items():
            if s == t:
                raise PresentationError(f"diagonal entry for {s} not allowed")
            i, j = position.get(s), position.get(t)
            if i is None or j is None:
                raise PresentationError(f"unknown generator in pair ({s},{t})")
            # the range test first: int() fails on NaN and on -inf
            if m != INF and not (m >= 2 and int(m) == m):
                raise PresentationError(f"label m({s},{t}) = {m} out of range (>= 2 or inf)")
            back = orders.get((t, s), m)
            if back != m:
                raise PresentationError(f"asymmetric labels for pair ({s},{t})")
            if m != INF:
                # a pair given one way round is stored both ways
                closed[s, t] = rows[i][j] = m
                closed[t, s] = rows[j][i] = back
                finite[i] |= 1 << j
                finite[j] |= 1 << i
                if m == 2:
                    two[i] |= 1 << j
                    two[j] |= 1 << i
        full = (1 << n) - 1
        for i in range(n):
            rows[i][i] = 1
        # every pair that does not commute is a diagram edge, infinity included
        neighbours = tuple(full ^ two[i] ^ 1 << i for i in range(n))
        vars(self).update(generators=generators, orders=closed,
                          label_rows=tuple(map(tuple, rows)), finite_masks=tuple(finite),
                          diagram_index=(position, neighbours))

    def __repr__(self) -> str:
        return f"CoxeterSystem(generators={self.generators!r}, orders={self.orders!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.orders) == (other.generators, other.orders)

    def __hash__(self) -> int:
        # a dict has no hash: equal systems have equal generators
        return hash((self.generators,))

    def m(self, s: str, t: str) -> float:
        """Order of st, read from `label_rows`: 1 on the diagonal, infinity
        for unspecified pairs, and `index`'s ValueError for a name that is
        not a generator."""
        return self.label_rows[self.index(s)][self.index(t)]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def index(self, s: str) -> int:
        try:
            return self.diagram_index[0][s]
        except KeyError:
            raise ValueError(f"{s!r} is not a generator") from None

    @cached_property
    def _finite_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, m_ij) for every pair of positions i < j with m_ij finite, in
        pair order, each label as an int."""
        rows = self.label_rows
        return tuple((i, j, int(rows[i][j])) for i, mask in enumerate(self.finite_masks)
                     for j in range(i + 1, mask.bit_length()) if mask >> j & 1)

    @cached_property
    def non_hyperbolic_triples(self) -> tuple[tuple[int, int, int, str], ...]:
        """(i, j, k, kind) for every triple of positions i < j < k whose kind
        is not hyperbolic, in `combinations` order; built when first read.

        Three labels >= 3 give 1/a + 1/b + 1/c <= 1, with equality only at
        (3, 3, 3), so such a triple has a label 2 or is (3, 3, 3).  With a
        label 2 it needs its other two labels finite or one of them 2 as well
        (1/2 + 1/2 + 1/m >= 1 for every m, infinity included).  So the third
        vertices k > j that a pair {i, j} can take are, by its label: for 2,
        the common finite neighbours and the vertices labelled 2 to i or j;
        for infinity, the vertices labelled 2 to both; otherwise the vertices
        labelled 2 to one of them and finite to the other, and for 3 also the
        vertices labelled 3 to both.  Each candidate goes once through
        `_triangle`, with its labels in `triangle_type`'s order."""
        rows = self.label_rows
        fin = self.finite_masks
        n = len(rows)
        full = (1 << n) - 1
        two = [full ^ nb ^ 1 << i for i, nb in enumerate(self.diagram_index[1])]
        three = [sum(1 << j for j, m in enumerate(row) if m == 3) for row in rows]
        triples = []
        for i, ri in enumerate(rows):
            fi, ti = fin[i], two[i]
            for j in range(i + 1, n):
                rj, m = rows[j], ri[j]
                if m == 2:
                    third = fi & fin[j] | ti | two[j]
                elif m == INF:
                    third = ti & two[j]
                else:
                    third = ti & fin[j] | two[j] & fi
                    if m == 3:
                        third |= three[i] & three[j]
                for k in range(j + 1, third.bit_length()):
                    if third >> k & 1:
                        kind = _triangle(m, rj[k], ri[k])
                        if kind != HYPERBOLIC:
                            triples.append((i, j, k, kind))
        return tuple(triples)

    def pairs(self):
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                yield gens[i], gens[j]


def make_system(generators: Iterable[str], labels: dict[tuple[str, str], float]) -> CoxeterSystem:
    """Build a system from labels given one way round or both."""
    return CoxeterSystem(tuple(generators), dict(labels))


def complete_graph_system(n: int, label: int = 3, labels: Optional[dict] = None) -> CoxeterSystem:
    """K_n system: every pair finite.  `labels` may override individual pairs,
    keyed either way round."""
    gens = [f"s{i+1}" for i in range(n)]
    lab = dict(labels or {})
    for i, s in enumerate(gens):
        for t in gens[i + 1:]:
            if (s, t) not in lab and (t, s) not in lab:
                lab[s, t] = label
    return make_system(gens, lab)


def parse_system(text: str) -> CoxeterSystem:
    """Parse the presentation file format.

    Line 1 (after comments): "gens a b c ...". Subsequent lines "a b 3" or
    "a b inf". "#" starts a comment. Unspecified pairs default to infinity.
    """
    gens: Optional[tuple[str, ...]] = None
    labels: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if gens is None:
            if parts[0] != "gens":
                raise PresentationError(f"line {lineno}: expected 'gens' line first")
            gens = tuple(parts[1:])
            if not gens:
                raise PresentationError(f"line {lineno}: no generators")
            if len(set(gens)) != len(gens):
                raise PresentationError(f"line {lineno}: duplicate generator")
            continue
        if len(parts) != 3:
            raise PresentationError(f"line {lineno}: expected '<id> <id> <label>'")
        s, t, lab = parts
        if s not in gens or t not in gens:
            raise PresentationError(f"line {lineno}: unknown generator")
        if s == t:
            raise PresentationError(f"line {lineno}: diagonal pair {s} {s}")
        if lab == "inf":
            m: float = INF
        else:
            try:
                m = int(lab)
            except ValueError:
                raise PresentationError(f"line {lineno}: bad label {lab!r}") from None
            if m < 2:
                raise PresentationError(f"line {lineno}: off-diagonal label {m} forbidden (must be >= 2)")
        prev = labels.get((t, s), labels.get((s, t)))
        if prev is not None and prev != m:
            raise PresentationError(f"line {lineno}: conflicting label for pair ({s},{t})")
        labels[s, t] = m
    if gens is None:
        raise PresentationError("empty presentation: no 'gens' line")
    return CoxeterSystem(gens, labels)


def format_system(sys: CoxeterSystem) -> str:
    """Serialize back to the presentation file format (finite labels only)."""
    gens = sys.generators
    lines = ["gens " + " ".join(gens)]
    lines += [f"{gens[i]} {gens[j]} {m}" for i, j, m in sys._finite_pairs]
    return "\n".join(lines) + "\n"


# --- triangle types ---------------------------------------------------------

SPHERICAL = "Spherical"
EUCLIDEAN = "Euclidean"
HYPERBOLIC = "Hyperbolic"


def triangle_type(sys: CoxeterSystem, triple: Iterable[str]) -> str:
    """SPHERICAL, EUCLIDEAN or HYPERBOLIC by an exact integer comparison
    (ValueError for a name that is not a generator).

    The labels (m_rs, m_st, m_rt) go to `_triangle`, the one triangle-type
    computation, which `non_hyperbolic_triples` calls on label rows as well.
    """
    trip = tuple(triple)
    if len(set(trip)) != 3:
        raise ValueError("triangle_type needs exactly 3 distinct generators")
    r, s, t = map(sys.index, trip)
    rows = sys.label_rows
    return _triangle(rows[r][s], rows[s][t], rows[r][t])


@lru_cache(maxsize=4096)
def _triangle(a: float, b: float, c: float) -> str:
    """The triangle type of labels a, b, c.  The reciprocal sum is compared
    with 1 with its denominators cleared: num / den accumulates 1/m over the
    finite labels, so for finite labels this compares ab + bc + ca with abc;
    an infinite label adds 0."""
    num, den = 0, 1
    for m in (a, b, c):
        if m != INF:
            m = int(m)
            num, den = num * m + den, den * m
    if num > den:
        return SPHERICAL
    if num == den:
        return EUCLIDEAN
    return HYPERBOLIC


# --- irreducible components and finite-type recognition ---------------------

def irreducible_components(sys: CoxeterSystem, subset: Iterable[str]) -> list[tuple[str, ...]]:
    """Connected components of the Coxeter diagram restricted to `subset`.

    Diagram edges are the pairs with m_st >= 3 (including infinity); m_st = 2
    means the generators commute and live in different components.  The
    first name outside the system raises `CoxeterSystem.index`'s ValueError.
    """
    gens = sys.generators
    return [tuple(gens[i] for i in comp) for comp in _component_positions(sys, subset)]


def _component_positions(sys: CoxeterSystem, subset: Iterable[str]) -> list[list[int]]:
    """`irreducible_components` as lists of generator positions, with a
    ValueError for the first name that is not a generator."""
    # subsets are bit masks over generator positions; each component grows from
    # its lowest member, so components come out in generator order, each sorted
    neighbours = sys.diagram_index[1]
    index = sys.index
    members = 0
    for g in subset:
        members |= 1 << index(g)
    comps = []
    while members:
        comp = frontier = members & -members
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = neighbours[low.bit_length() - 1] & members & ~comp
            comp |= grown
            frontier |= grown
        members ^= comp
        comps.append([i for i in range(comp.bit_length()) if comp >> i & 1])
    return comps


class FiniteTypeVerdict(NamedTuple):
    finite: bool
    # finite: list of component diagram names; infinite: description of one
    # infinite component (its generators and why it fails).
    witness: tuple[str, ...]


def _component_diagram_name(sys: CoxeterSystem, members: list[int]) -> Optional[str]:
    """Name of the finite-type diagram for an irreducible component, given by
    its generator positions in increasing order, or None.

    Recognizes A_n, B_n, D_n, E6/E7/E8, F4, H3/H4, I2(m).  The component is
    connected with every edge labeled >= 3 (or infinity).
    """
    n = len(members)
    if n == 1:
        return "A1"
    rows = sys.label_rows
    if n == 2:
        m = rows[members[0]][members[1]]
        if m == INF:
            return None
        m = int(m)
        if m == 3:
            return "A2"
        if m == 4:
            return "B2"
        if m == 6:
            return "G2"
        return f"I2({m})"
    # from rank 3 on, finite-type diagrams are trees with no infinite label:
    # the scan stops at the first infinite label or the n-th edge; a connected
    # component has at least n - 1 edges, so one that passes it is a tree
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in members}
    edges = 0
    for k, i in enumerate(members):
        row = rows[i]
        for j in members[k + 1:]:
            m = row[j]
            if m == INF:
                return None
            if m >= 3:
                edges += 1
                if edges == n:
                    return None
                m = int(m)
                adj[i].append((j, m))
                adj[j].append((i, m))
    branch = [i for i in members if len(adj[i]) >= 3]
    if len(branch) > 1 or any(len(adj[i]) > 3 for i in members):
        return None
    if branch:
        # D_n / E6 / E7 / E8: all labels 3, branch arm lengths (1,1,k) or (1,2,k)
        center = branch[0]
        arms = [_walk_labels(adj, center, v, m) for v, m in adj[center]]
        if any(m != 3 for arm in arms for m in arm):
            return None
        lengths = sorted(len(arm) for arm in arms)
        if lengths[0] == 1 and lengths[1] == 1:
            return f"D{n}"
        if lengths[:2] == [1, 2] and lengths[2] in (2, 3, 4):
            return {2: "E6", 3: "E7", 4: "E8"}[lengths[2]]
        return None
    # path: locate the non-3 labels
    end = next(i for i in members if len(adj[i]) == 1)
    path_labels = _walk_labels(adj, end, *adj[end][0])
    big = [(k, m) for k, m in enumerate(path_labels) if m != 3]
    if not big:
        return f"A{n}"
    if len(big) > 1:
        return None
    k, m = big[0]
    at_end = k == 0 or k == n - 2
    if m == 4 and at_end:
        return f"B{n}"
    if m == 4 and n == 4 and k == 1:
        return "F4"
    if m == 5 and at_end and n in (3, 4):
        return {3: "H3", 4: "H4"}[n]
    return None


def _walk_labels(adj, prev, cur, m):
    """Labels of the path that starts with the edge prev - cur (label m) and
    runs on through vertices of degree 2 until it reaches a leaf."""
    labels = [m]
    while len(adj[cur]) == 2:
        (a, ma), (b, mb) = adj[cur]
        prev, cur, m = (cur, b, mb) if a == prev else (cur, a, ma)
        labels.append(m)
    return labels


def is_finite_type(sys: CoxeterSystem, subset: Iterable[str]) -> FiniteTypeVerdict:
    """Decide whether the special subgroup generated by `subset` is finite.

    Exact, integer-only: each irreducible component is matched against the
    classified finite diagrams.  Cross-checked in the test suite against
    Todd-Coxeter enumeration.  ValueError for the first name in `subset`
    that is not a generator.
    """
    names = []
    for comp in _component_positions(sys, subset):
        name = _component_diagram_name(sys, comp)
        if name is None:
            witness = "infinite component: " + " ".join(sys.generators[i] for i in comp)
            return FiniteTypeVerdict(False, (witness,))
        names.append(name)
    return FiniteTypeVerdict(True, tuple(names))


def finite_coxeter_order(name: str) -> int:
    """Order of the finite Coxeter group with the given diagram name."""
    if name.startswith("I2("):
        return 2 * int(name[3:-1])
    fixed = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "F4": 1152,
             "H3": 120, "H4": 14400, "E6": 51840, "E7": 2903040, "E8": 696729600}
    if name in fixed:
        return fixed[name]
    family, n = name[0], int(name[1:])
    if family == "A":
        return math.factorial(n + 1)
    if family == "B":
        return (2 ** n) * math.factorial(n)
    if family == "D":
        return (2 ** (n - 1)) * math.factorial(n)
    raise ValueError(f"unknown diagram {name}")


def subgroup_order(sys: CoxeterSystem, subset: Iterable[str]) -> Optional[int]:
    """Order of a finite special subgroup, or None if infinite; ValueError
    for a name that is not a generator, as in `is_finite_type`."""
    verdict = is_finite_type(sys, subset)
    if not verdict.finite:
        return None
    order = 1
    for name in verdict.witness:
        order *= finite_coxeter_order(name)
    return order


# --- Tits geometric representation ------------------------------------------

Matrix = tuple[tuple[float, ...], ...]


def cosine_matrix(sys: CoxeterSystem) -> Matrix:
    """Bilinear form B with B[s][t] = -cos(pi/m_st), B[s][s] = 1, as float
    rows by generator position."""
    # -cos(pi/m) -> -1 as m -> infinity
    return tuple(tuple(1.0 if i == j else -1.0 if m == INF else -math.cos(math.pi / m)
                       for j, m in enumerate(row)) for i, row in enumerate(sys.label_rows))


def geometric_representation(sys: CoxeterSystem) -> tuple[Matrix, ...]:
    """Reflection matrices of the Tits representation, one per generator, as
    float rows.

    rho(s) x = x - 2 B(e_s, x) e_s: row s is e_s - 2 B[s], and every other row
    is that of the identity.  Each matrix is an involution preserving the
    cosine form, and rho(s) rho(t) has order m_st when finite.
    """
    B = cosine_matrix(sys)
    n = sys.rank
    unit = [tuple(float(i == j) for j in range(n)) for i in range(n)]
    return tuple(tuple(tuple(u - 2.0 * b for u, b in zip(unit[s], B[s])) if i == s else unit[i]
                       for i in range(n)) for s in range(n))
