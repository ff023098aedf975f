"""Every reader of the positional label matrix against its name-keyed oracle.

The bodies below are the readers as they were when each looked its labels up
by generator name, through `CoxeterSystem.m` and `pairs`: the Coxeter matrix
behind `WordContext`, `coxeter_relators`, the dihedral pairs of
`build_davis_ball`, the finite-type diagram match, `triangle_type`,
`cosine_matrix`, `format_system` and `nerve_to_json`.  The positional readers must give the
same results and the same bytes.
"""

import copy
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxbound.nerve import build_nerve, nerve_to_json
from coxbound.system import (INF, CoxeterSystem, _triangle, cosine_matrix,
                             format_system, irreducible_components, is_finite_type,
                             make_system, triangle_type)
from coxbound.words import _small_root_table, coxeter_relators, word_context


def oracle_coxeter_matrix(sys):
    gens = sys.generators
    n = sys.rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                mij = sys.m(gens[i], gens[j])
                m[i][j] = INF if mij == INF else int(mij)
    return m


def oracle_coxeter_relators(sys, subset):
    rels = []
    for s in range(len(subset)):
        for t in range(s + 1, len(subset)):
            m = sys.m(subset[s], subset[t])
            if m != INF:
                rels.append((s, t, int(m)))
    return rels


def oracle_davis_pairs(sys):
    gens = sys.generators
    return [(i, j, int(sys.m(gens[i], gens[j])))
            for i in range(sys.rank) for j in range(i + 1, sys.rank)
            if sys.m(gens[i], gens[j]) != INF]


def oracle_components(sys, subset):
    """Connected components of the diagram (m_st >= 3, infinity included) on
    the generators in `subset`, each and all in generator order."""
    wanted = set(subset)
    left = [g for g in sys.generators if g in wanted]
    comps = []
    while left:
        comp, frontier = {left[0]}, [left[0]]
        while frontier:
            s = frontier.pop()
            for t in left:
                if t not in comp and sys.m(s, t) >= 3:
                    comp.add(t)
                    frontier.append(t)
        comps.append(tuple(g for g in left if g in comp))
        left = [g for g in left if g not in comp]
    return comps


def oracle_component_diagram_name(sys, comp):
    n = len(comp)
    if n == 1:
        return "A1"
    label = sys.m
    if n == 2:
        m = label(comp[0], comp[1])
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
    adj = {g: [] for g in comp}
    edges = 0
    for i, s in enumerate(comp):
        for t in comp[i + 1:]:
            m = label(s, t)
            if m == INF:
                return None
            if m >= 3:
                edges += 1
                if edges == n:
                    return None
                m = int(m)
                adj[s].append((t, m))
                adj[t].append((s, m))
    if edges != n - 1:
        return None
    branch = [g for g in comp if len(adj[g]) >= 3]
    if len(branch) > 1 or any(len(adj[g]) > 3 for g in comp):
        return None
    if branch:
        center = branch[0]
        arms = [oracle_walk_labels(adj, center, v, m) for v, m in adj[center]]
        if any(m != 3 for arm in arms for m in arm):
            return None
        lengths = sorted(len(arm) for arm in arms)
        if lengths[0] == 1 and lengths[1] == 1:
            return f"D{n}"
        if lengths[:2] == [1, 2] and lengths[2] in (2, 3, 4):
            return {2: "E6", 3: "E7", 4: "E8"}[lengths[2]]
        return None
    end = next(g for g in comp if len(adj[g]) == 1)
    path_labels = oracle_walk_labels(adj, end, *adj[end][0])
    big = [(i, m) for i, m in enumerate(path_labels) if m != 3]
    if not big:
        return f"A{n}"
    if len(big) > 1:
        return None
    i, m = big[0]
    at_end = i == 0 or i == n - 2
    if m == 4 and at_end:
        return f"B{n}"
    if m == 4 and n == 4 and i == 1:
        return "F4"
    if m == 5 and at_end and n in (3, 4):
        return {3: "H3", 4: "H4"}[n]
    return None


def oracle_walk_labels(adj, prev, cur, m):
    labels = [m]
    while len(adj[cur]) == 2:
        (a, ma), (b, mb) = adj[cur]
        prev, cur, m = (cur, b, mb) if a == prev else (cur, a, ma)
        labels.append(m)
    return labels


def oracle_is_finite_type(sys, subset):
    names = []
    for comp in oracle_components(sys, subset):
        name = oracle_component_diagram_name(sys, comp)
        if name is None:
            return (False, ("infinite component: " + " ".join(comp),))
        names.append(name)
    return (True, tuple(names))


def oracle_triangle_type(sys, triple):
    r, s, t = triple
    return _triangle(sys.m(r, s), sys.m(s, t), sys.m(r, t))


def oracle_cosine_matrix(sys):
    n = sys.rank
    B = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = sys.m(sys.generators[i], sys.generators[j])
            B[i, j] = -1.0 if m == INF else -math.cos(math.pi / m)
    return B


def oracle_format_system(sys):
    lines = ["gens " + " ".join(sys.generators)]
    for s, t in sys.pairs():
        m = sys.m(s, t)
        if m != INF:
            lines.append(f"{s} {t} {int(m)}")
    return "\n".join(lines) + "\n"


def oracle_nerve_to_json(sys, n):
    payload = {
        "vertices": list(n.vertices),
        "edges": [
            {
                "pair": list(e),
                "m": int(sys.m(*e)),
                "length_over_pi": [n.edge_lengths[e].numerator, n.edge_lengths[e].denominator],
            }
            for e in n.edges()
        ],
        "simplices": [list(s) for s in n.simplices],
        "dimension": n.dimension,
        "max_dim": n.max_dim,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_NAME_POOL = ["a", "b", "c", "d", "e", "f", "g", "x1", "x2", "zz", "Q"]
_LABELS = [2, 3, 4, 5, 6, 7, INF, 2.0, 3.0, 4.0, 5.0, 6.0]


@st.composite
def systems(draw):
    """Rank 1-7, shuffled names, integer, float and infinite labels, each
    pair given one way round or the other."""
    rank = draw(st.integers(1, 7), label="rank")
    gens = draw(st.permutations(_NAME_POOL), label="names")[:rank]
    labels = {}
    for s, t in combinations(gens, 2):
        key = (t, s) if draw(st.booleans()) else (s, t)
        # half the labels are 2 or 3, so that many subsets are of finite type
        labels[key] = draw(st.sampled_from([2, 2.0, 3]) | st.sampled_from(_LABELS))
    return make_system(gens, labels)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_position_readers_match_name_keyed_oracles(data):
    sysm = data.draw(systems(), label="system")
    gens = sysm.generators
    assert sysm == CoxeterSystem(gens, {(s, t): sysm.m(s, t) for s, t in sysm.pairs()})

    # small roots and normal forms, against a context on the oracle's matrix
    ctx = word_context(sysm)
    oracle = copy.copy(ctx)
    oracle._table = _small_root_table(oracle_coxeter_matrix(sysm))
    assert ctx.small_root_count == oracle.small_root_count
    words = st.lists(st.integers(0, sysm.rank - 1), max_size=12)
    for _ in range(3):
        w = data.draw(words, label="word")
        assert ctx.normal_form(w) == oracle.normal_form(w)

    subset = data.draw(st.lists(st.sampled_from(gens)), label="relator subset")
    assert coxeter_relators(sysm, subset) == oracle_coxeter_relators(sysm, subset)
    assert list(sysm._finite_pairs) == oracle_davis_pairs(sysm)

    # every subset, listed in a drawn order; a name outside the system, put
    # in at a drawn place, makes `irreducible_components` raise
    order = data.draw(st.permutations(gens), label="subset order")
    for size in range(len(gens) + 1):
        for subset in combinations(order, size):
            verdict = is_finite_type(sysm, subset)
            assert (verdict.finite, verdict.witness) == oracle_is_finite_type(sysm, subset)
            assert irreducible_components(sysm, subset) == oracle_components(sysm, subset)
            at = data.draw(st.integers(0, size), label="non-generator place")
            with pytest.raises(ValueError, match="^'not-a-generator' is not a generator$"):
                irreducible_components(sysm, subset[:at] + ("not-a-generator",) + subset[at:])
    for trip in combinations(order, 3):
        assert triangle_type(sysm, trip) == oracle_triangle_type(sysm, trip)

    assert np.array(cosine_matrix(sysm)).tobytes() == oracle_cosine_matrix(sysm).tobytes()
    assert format_system(sysm) == oracle_format_system(sysm)
    nerve = build_nerve(sysm, data.draw(st.integers(1, 3), label="max_dim"))
    assert nerve_to_json(sysm, nerve) == oracle_nerve_to_json(sysm, nerve)
