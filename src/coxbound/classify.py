"""Boundary classification for Coxeter groups with complete-graph nerves.

The decision pipeline: finite groups are EmptyOrFinite; groups whose nerve is
the 1-dimensional complete graph K_n get the n-trichotomy verdict (circle,
Sierpinski carpet, Menger curve); anything outside those hypotheses is
refused with a machine-readable OutOfScope reason rather than guessed.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple, Optional

from .nerve import NerveComplex, is_complete_1d_nerve
from .system import EUCLIDEAN, HYPERBOLIC, INF, CoxeterSystem, is_finite_type, triangle_type

CIRCLE = "Circle"
SIERPINSKI_CARPET = "SierpinskiCarpet"
MENGER_CURVE = "MengerCurve"
EMPTY_OR_FINITE = "EmptyOrFinite"
OUT_OF_SCOPE = "OutOfScope"


class BoundaryClass(NamedTuple):
    tag: str
    reason: Optional[str] = None   # populated for OutOfScope only

    def __str__(self) -> str:
        return self.tag if self.reason is None else f"{self.tag}({self.reason})"


class ClassificationReport(NamedTuple):
    system: CoxeterSystem
    boundary: BoundaryClass
    n: int
    serre_fa: bool
    has_euclidean_triple: bool
    hyperbolic: bool
    isolated_flats: bool
    euclidean_triples: tuple[tuple[str, str, str], ...]
    citations: tuple[str, ...]

    @property
    def triangle_census(self) -> tuple[tuple[tuple[str, str, str], str], ...]:
        """(triple, kind) for every 3-subset, in `combinations` order;
        classification does not need it, so it is computed when read."""
        sys = self.system
        return tuple((t, triangle_type(sys, t)) for t in combinations(sys.generators, 3))


def serre_fa_criterion(sys: CoxeterSystem) -> bool:
    """Serre's sufficient criterion for Property FA: every pairwise product
    has finite order.  True on the criterion, not on Property FA itself."""
    full = (1 << sys.rank) - 1
    return all(mask >> (i + 1) == full >> (i + 1) for i, mask in enumerate(sys.finite_masks))


def euclidean_triple_scan(sys: CoxeterSystem) -> list[tuple[str, str, str]]:
    """All 3-subsets whose reciprocal label sum is exactly 1 (flat sources),
    in `combinations` order, read from the system's non-hyperbolic triples."""
    gens = sys.generators
    return [(gens[i], gens[j], gens[k])
            for i, j, k, kind in sys.non_hyperbolic_triples if kind == EUCLIDEAN]


def isolated_flats_check(sys: CoxeterSystem, nerve: NerveComplex) -> bool:
    """Isolated flats hold for complete-graph nerves; asserts the mechanism
    (no two adjacent nerve edges are both labeled 2)."""
    complete, _ = is_complete_1d_nerve(nerve)
    if not complete:
        raise ValueError("isolated_flats_check requires a complete 1-dimensional nerve")
    for v, row in zip(sys.generators, sys.label_rows):
        if row.count(2) >= 2:
            # would contradict 1-dimensionality: a (2,2,m) triple is finite
            raise AssertionError(
                f"nerve inconsistency: vertex {v} has two incident edges labeled 2")
    return True


def classify_boundary(sys: CoxeterSystem) -> ClassificationReport:
    """Three-way visual-boundary verdict with audit trail.

    Builds neither the triangle census nor the nerve.  Every triple that is
    not hyperbolic has a label 2 or is (3, 3, 3), and the system finds those
    from its label-2 and label-3 masks (`non_hyperbolic_triples`); a finite
    group needs no search, since every triple of it is spherical.  The
    triples give the Euclidean triples and whether some triple is spherical;
    with the finite-label masks that fixes the nerve as `build_nerve(sys, 2)`
    would build it: complete and 1-dimensional iff every label is finite (the
    Serre criterion), n >= 2 and no triple is spherical; otherwise of
    dimension 2 with a spherical triple, 1 with a finite label, else 0.
    `isolated_flats` is true exactly for a complete 1-dimensional nerve, with
    no check of its own: a vertex with two label-2 edges and a finite third
    label between their ends makes a spherical (2, 2, m) triple, which such a
    nerve excludes, and for n = 2 a row holds a single label.
    """
    n = sys.rank
    gens = sys.generators
    citations: list[str] = []
    fa = serre_fa_criterion(sys)
    finite = is_finite_type(sys, gens).finite
    if finite:
        euclidean, spherical = (), n >= 3
    else:
        euclidean = tuple(euclidean_triple_scan(sys))
        # the triples that are neither hyperbolic nor Euclidean are spherical
        spherical = len(euclidean) < len(sys.non_hyperbolic_triples)
    has_euc = bool(euclidean)
    hyperbolic = not has_euc
    complete1d = fa and n >= 2 and not spherical
    flats = complete1d      # no vertex has two label-2 edges: see above

    def report(boundary: BoundaryClass) -> ClassificationReport:
        return ClassificationReport(sys, boundary, n, fa, has_euc, hyperbolic,
                                    flats, euclidean, tuple(citations))

    if finite:
        citations.append("whole generating set is finite type: finite group, empty or finite boundary")
        return report(BoundaryClass(EMPTY_OR_FINITE))
    if not complete1d:
        dimension = 2 if spherical else 1 if any(sys.finite_masks) else 0
        if dimension != 1:
            reason = f"nerve dimension {dimension} != 1"
        else:
            reason = "nerve not complete (some m_st = inf)"
        citations.append("hypotheses of the complete-graph trichotomy not met: " + reason)
        return report(BoundaryClass(OUT_OF_SCOPE, reason))

    citations.append(f"nerve is the 1-dimensional complete graph K_{n}")
    # a complete nerve has every label finite, so the Serre criterion holds
    citations.append("Serre criterion holds: all pairwise products have finite order")
    citations.append("isolated flats: complete-graph nerve, no vertex with two label-2 edges")
    if has_euc:
        citations.append(f"{len(euclidean)} Euclidean triple(s) found: flats exist, group not hyperbolic")
    else:
        citations.append("no Euclidean triple: no flat sources in the 2-dimensional regime")

    if n == 3:
        kind = EUCLIDEAN if has_euc else HYPERBOLIC
        citations.append(f"n=3: infinite triangle group ({kind}): circle boundary")
        return report(BoundaryClass(CIRCLE))
    if n == 4:
        citations.append("n=4: planar nerve, boundary is the Sierpinski carpet")
        return report(BoundaryClass(SIERPINSKI_CARPET))
    citations.append(f"n={n} >= 5: K_5 embeds in the boundary, boundary is the Menger curve")
    return report(BoundaryClass(MENGER_CURVE))


def report_to_json(r: ClassificationReport) -> str:
    """The report as `json.dumps(..., indent=2)` writes its JSON-stable view:
    the system's generators and its labels [s, t, m] for every pair s before
    t, m an int or "inf"; then n, boundary, serre_fa, the Euclidean triples,
    hyperbolic, isolated_flats and the citations, in that order.  Written
    directly for the fixed schema, because the general encoder's pure-Python
    indenting path cost more than the classification itself."""
    sysm = r.system
    quoted = {g: json.dumps(g) for g in sysm.generators}
    names = list(quoted.values())
    labels = []
    for i, row in enumerate(sysm.label_rows):
        s = names[i]
        for j in range(i + 1, len(row)):
            m = row[j]
            labels.append(_LABEL.format(s, names[j], '"inf"' if m == INF else m))
    euclidean = [_array([quoted[g] for g in trip], 2) for trip in r.euclidean_triples]
    return "\n".join((
        "{",
        '  "system": {',
        f'    "generators": {_array(names, 2)},',
        f'    "labels": {_array(labels, 2)}',
        "  },",
        f'  "n": {r.n},',
        f'  "boundary": {json.dumps(str(r.boundary))},',
        f'  "serre_fa": {json.dumps(r.serre_fa)},',
        f'  "euclidean_triples": {_array(euclidean, 1)},',
        f'  "hyperbolic": {json.dumps(r.hyperbolic)},',
        f'  "isolated_flats": {json.dumps(r.isolated_flats)},',
        f'  "citations": {_array([json.dumps(c) for c in r.citations], 1)}',
        "}",
    ))


# one [s, t, m] entry of "labels", laid out as `_array` lays out depth 3
_LABEL = "[\n        {},\n        {},\n        {}\n      ]"


def _array(items, depth: int) -> str:
    """A JSON array of encoded items, laid out as indent=2 lays out an array
    nested `depth` levels deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"
