"""Nerve complex of a Coxeter system: simplices, dimension, planarity.

Simplices are the finite-type generator subsets.  Edge lengths carry the
angular metric: edge {s,t} has length (1 - 1/m_st) * pi, stored as the exact
rational coefficient of pi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .system import INF, SPHERICAL, CoxeterSystem, is_finite_type

# networkx is imported inside the functions that use it, not at module import:
# only `graph` and `is_planar` use it, and the classify path never loads it.
if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class NerveComplex:
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

    def graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.vertices)
        g.add_edges_from(self.edges())
        return g


@lru_cache(maxsize=128)
def edge_length_fraction(m: int) -> Fraction:
    """Angular length of a nerve edge with label m, as a multiple of pi."""
    return Fraction(m - 1, m)


def build_nerve(sys: CoxeterSystem, max_dim: int = 2) -> NerveComplex:
    """Nerve up to dimension max_dim: all finite-type subsets of size <= max_dim + 1.

    Supersets of infinite-type subsets are pruned level by level (finite type
    is downward closed, so only extensions of stored simplices can be finite).
    The labels decide the two lowest levels: a pair is an edge iff its label is
    finite, and a triple whose three edges are present is a 2-simplex iff its
    labels a, b, c satisfy 1/a + 1/b + 1/c > 1 (read from the system's
    triangle census).  Only subsets of four or more generators go through
    diagram matching (`is_finite_type`).
    """
    if max_dim < 1:
        raise ValueError("max_dim must be >= 1")
    gens = sys.generators
    simplices: list[tuple[str, ...]] = []
    edge_lengths: dict[tuple[str, str], Fraction] = {}
    prev_level = [(g,) for g in gens]
    for size in range(2, max_dim + 2):
        prev_set = set(prev_level)
        level = []
        for base in prev_level:
            last = sys.index(base[-1])
            for g in gens[last + 1:]:
                cand = base + (g,)
                # all facets must already be present
                if any(cand[:i] + cand[i + 1:] not in prev_set for i in range(size - 1)):
                    continue
                if _finite_type(sys, cand):
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


def _finite_type(sys: CoxeterSystem, cand: tuple[str, ...]) -> bool:
    """Finite type of a candidate simplex whose facets are all simplices.

    An edge needs a finite label.  A triple's three labels are then finite, and
    it is finite iff its triangle type is spherical.  Larger subsets are
    matched against the finite diagrams.
    """
    if len(cand) == 2:
        return sys.m(*cand) != INF
    if len(cand) == 3:
        return sys.triangle_census[cand].kind == SPHERICAL
    return is_finite_type(sys, cand).finite


def is_complete_1d_nerve(n: NerveComplex) -> tuple[bool, int | None]:
    """(True, vertex count) iff the nerve is the 1-dimensional complete graph."""
    nv = len(n.vertices)
    if n.dimension != 1:
        return False, None
    if len(n.edges()) != nv * (nv - 1) // 2:
        return False, None
    return True, nv


def is_planar(n: NerveComplex) -> bool:
    """Planarity of the nerve 1-skeleton; only defined in the 1-dimensional case."""
    if n.dimension > 1:
        raise ValueError("planarity is only defined for nerves of dimension <= 1")
    import networkx as nx

    planar, _ = nx.check_planarity(n.graph())
    return planar


def nerve_to_json(sys: CoxeterSystem, n: NerveComplex) -> str:
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
