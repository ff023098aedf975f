"""Nerve complex of a Coxeter system: simplices and dimension.

Simplices are the finite-type generator subsets.  Edge lengths carry the
angular metric: edge {s,t} has length (1 - 1/m_st) * pi, stored as the exact
rational coefficient of pi.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .system import SPHERICAL, CoxeterSystem, is_finite_type


class NerveComplex(NamedTuple):
    vertices: tuple[str, ...]
    simplices: tuple[tuple[str, ...], ...]   # finite-type subsets of size >= 2
    max_dim: int                             # enumeration bound used
    edge_lengths: dict[tuple[str, str], Fraction]  # coefficient of pi

    @property
    def dimension(self) -> int:
        if not self.simplices:
            return 0 if self.vertices else -1
        return max(len(s) for s in self.simplices) - 1

    def edges(self) -> list[tuple[str, str]]:
        return [s for s in self.simplices if len(s) == 2]


@lru_cache(maxsize=128)
def edge_length_fraction(m: int) -> Fraction:
    """Angular length of a nerve edge with label m, as a multiple of pi."""
    return Fraction(m - 1, m)


def build_nerve(sys: CoxeterSystem, max_dim: int = 2) -> NerveComplex:
    """Nerve up to dimension max_dim: all finite-type subsets of size <= max_dim + 1.

    Read from the system's finite pairs and its non-hyperbolic triples.  A
    pair is an edge iff its label is finite.  A triple is a 2-simplex iff its
    labels a, b, c satisfy 1/a + 1/b + 1/c > 1; such a triple has a label 2
    (three labels >= 3 give a sum <= 1), so the 2-simplices are the spherical
    entries of `CoxeterSystem.non_hyperbolic_triples`, found from the label-2
    and label-3 masks, in the same order (no other walk over triples).
    `classify_boundary` and `build_davis_ball` build no nerve: they read the
    same triples.  Larger subsets extend the previous level (finite type is
    downward closed): a candidate needs every facet stored, and goes through
    diagram matching (`is_finite_type`).
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    gens = sys.generators
    edge_lengths = {(gens[i], gens[j]): edge_length_fraction(m) for i, j, m in sys._finite_pairs}
    simplices = list(edge_lengths)
    level = []
    if max_dim >= 2:
        level = [(i, j, k) for i, j, k, kind in sys.non_hyperbolic_triples if kind == SPHERICAL]
        simplices += [(gens[i], gens[j], gens[k]) for i, j, k in level]
    for size in range(4, max_dim + 2):
        prev_set = set(level)
        prev_level, level = level, []
        for base in prev_level:
            for g in range(base[-1] + 1, len(gens)):
                cand = base + (g,)
                # all facets must already be present
                if any(cand[:i] + cand[i + 1:] not in prev_set for i in range(size - 1)):
                    continue
                names = tuple(gens[i] for i in cand)
                if is_finite_type(sys, names).finite:
                    level.append(cand)
                    simplices.append(names)
    return NerveComplex(gens, tuple(simplices), max_dim, edge_lengths)


def is_complete_1d_nerve(n: NerveComplex) -> tuple[bool, int | None]:
    """(True, vertex count) iff the nerve is the 1-dimensional complete graph:
    it has an edge, every simplex is one, and every pair is one."""
    edges = n.edges()
    nv = len(n.vertices)
    if not edges or len(edges) != len(n.simplices) or len(edges) != nv * (nv - 1) // 2:
        return False, None
    return True, nv


def nerve_to_json(sys: CoxeterSystem, n: NerveComplex) -> str:
    gens = sys.generators
    labels = {(gens[i], gens[j]): m for i, j, m in sys._finite_pairs}
    payload = {
        "vertices": list(n.vertices),
        "edges": [
            {
                "pair": list(e),
                "m": labels[e],
                "length_over_pi": [n.edge_lengths[e].numerator, n.edge_lengths[e].denominator],
            }
            for e in n.edges()
        ],
        "simplices": [list(s) for s in n.simplices],
        "dimension": n.dimension,
        "max_dim": n.max_dim,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
