"""Sierpinski-carpet approximations, star embeddings, and the K5 scaffold:
five copies of one carpet, glued along the marks of their stars.

All geometry is exact.  The carpet is the standard middle-ninth model in the
unit square; the removed open squares are the peripheral Jordan-region
approximants (the outer boundary counts as one more peripheral circle).  A
level-L carpet is a record of its level, read on the 3^L x 3^L cell grid,
and neither it nor a K5 scaffold caches anything.  Every square of it,
kept, removed, marked or the outer boundary, is an integer cell
(x, y, side) in units of 3^-L, and only points are `Fraction`s.
One rule on a cell's base-3 digits, `CarpetApprox.hole`, answers whether the
cell is kept and which removed square covers it otherwise; every membership
question reads it, and `removed` serves only as the drawings' order of the
squares.  A cell has one id, its grid position i * 3^L + j.  The
star-embedding router works on the corridor graph of kept cells, held as
increasing adjacency lists on those ids, which `corridors` builds for one
routing call and nothing keeps after it; the router's flow routine,
`node_disjoint_paths`, is a port of networkx's node-split Edmonds-Karp that
reads networkx's residual network off those lists instead of building it, and
returns exactly the paths networkx returns (networkx stays its oracle in the
tests).  A routed leg is written by its corners: the star's center, the cell
centers where its path turns, the entry cell's center and the mark, a
polyline whose point set is the one through every cell center of the path.
A verifier that shares no code with the router re-checks every output with
the exact segment predicates, on the star's points scaled to integers and
the removed squares that `hole` names for the cells the legs pass.  The
drawings read the cells too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional, Sequence

from .classify import _array
from .geometry import (DISJOINT, OVERLAP, POINT, Point, lerp, on_segment,
                       segment_common, segment_in_box)

MAX_CARPET_LEVEL = 7

F0, F1 = Fraction(0), Fraction(1)


class CarpetApprox(NamedTuple):
    """The level-`level` middle-ninth carpet, a record of its level alone.
    Its squares are integer cells (x, y, side) in units of 3^-level; `hole`
    says which cells are kept, and `kept` and `removed` are computed from
    the level each time they are read."""
    level: int

    def hole(self, i: int, j: int) -> Optional[tuple[int, int, int]]:
        """The removed square (x, y, side) that covers cell (i, j) of the
        3^level grid, or None for a kept cell.  A square of side s = 3^p is
        the middle ninth of a kept square of side 3s, so the highest base-3
        place p at which both i and j have the digit 1 fixes it, its corner
        i and j with their p lower places cleared."""
        side = 3 ** self.level
        while side > 1:
            side //= 3
            if i // side % 3 == 1 and j // side % 3 == 1:
                return (i - i % side, j - j % side, side)
        return None

    @property
    def kept(self) -> tuple[tuple[int, int, int], ...]:
        """The 8^level cells of side 1 that no removed square covers, in
        row-major order."""
        n = 3 ** self.level
        return tuple((i, j, 1) for i in range(n) for j in range(n) if self.hole(i, j) is None)

    @property
    def removed(self) -> tuple[tuple[int, int, int], ...]:
        """The removed squares, all scales, in subdivision order: the order
        the SVG drawings emit them in."""
        return tuple(_removed_cells(self.level))


def corridors(carpet: CarpetApprox) -> tuple[list[list[int]], list[int]]:
    """The corridor graph of the kept cells of `carpet` as integer lists,
    cell (i, j) having the id i * 3^level + j, its grid position: for each
    grid position, the kept cells among (i-1, j), (i, j-1), (i, j+1),
    (i+1, j), in that order, which is increasing id order (the router's
    input), or [] for a removed cell; and the ids of the kept cells by
    distance from the grid center, ties in id order (the router's candidate
    centers).  It is the state of one routing call: `build_k5_scaffold`
    builds it once, routes every star on it and drops it."""
    n = 3 ** carpet.level
    hole = carpet.hole
    kept = [hole(i, j) is None for i in range(n) for j in range(n)]
    none: list[int] = []        # shared by every removed cell, never mutated
    adjacency = []
    for r, is_kept in enumerate(kept):
        if not is_kept:
            adjacency.append(none)
            continue
        i, j = divmod(r, n)
        adjacency.append([s for s in (r - n if i > 0 else -1, r - 1 if j > 0 else -1,
                                      r + 1 if j < n - 1 else -1, r + n if i < n - 1 else -1)
                          if s >= 0 and kept[s]])
    by_center = sorted((r for r, is_kept in enumerate(kept) if is_kept), key=lambda r: (
        abs(2 * (r // n) + 1 - n) + abs(2 * (r % n) + 1 - n), r))
    return adjacency, by_center


def _removed_cells(level: int) -> list[tuple[int, int, int]]:
    """The removed squares of the level-`level` carpet, all scales, as integer
    cells (x, y, side) in units of 3^-level: at each step every kept cell
    loses its center and leaves its other eight ninths, x offset outer and
    y offset inner, until the centers removed are single cells."""
    s = 3 ** level
    kept = [(0, 0)]
    holes: list[tuple[int, int, int]] = []
    for _ in range(level):
        s //= 3
        holes += [(x + s, y + s, s) for x, y in kept]
        if s == 1:
            break
        t = 2 * s
        kept = [cell for x, y in kept for cell in (
            (x, y), (x, y + s), (x, y + t), (x + s, y), (x + s, y + t),
            (x + t, y), (x + t, y + s), (x + t, y + t))]
    return holes


def build_carpet_approx(level: int) -> CarpetApprox:
    """Middle-ninth carpet of the given level, 0 to MAX_CARPET_LEVEL."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_CARPET_LEVEL:
        raise ValueError(f"level {level} exceeds guard {MAX_CARPET_LEVEL}")
    return CarpetApprox(level)


def null_family_check(c: CarpetApprox, epsilon: Fraction) -> int:
    """Number of removed squares with diameter strictly greater than epsilon,
    counted per scale: step k removes 8^(k-1) squares of diameter^2 2/9^k."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eps2 = epsilon * epsilon
    return sum(8 ** (k - 1) for k in range(1, c.level + 1) if Fraction(2, 9 ** k) > eps2)


# --- the erratum's explicit star family in the 3-holed disk --------------------

class HoledDisk(NamedTuple):
    """Unit disk with three radius-1/4 holes; marked points face the origin
    (p4 = (1,0) on the outer circle)."""
    hole_centers: tuple[Point, ...] = (
        (Fraction(-1, 2), F0), (F0, Fraction(1, 2)), (F0, Fraction(-1, 2)))
    hole_radius: Fraction = Fraction(1, 4)
    marked: tuple[Point, ...] = (
        (Fraction(-1, 4), F0), (F0, Fraction(1, 4)), (F0, Fraction(-1, 4)), (F1, F0))


HOLED_DISK = HoledDisk()
T_RANGE = (Fraction(-1, 8), Fraction(1, 8))


class StarEmbedding(NamedTuple):
    """Four straight legs from (t, -t) to the marked points of the holed disk."""
    t: Fraction

    @property
    def center(self) -> Point:
        return (self.t, -self.t)

    def leg(self, i: int) -> tuple[Point, Point]:
        return (self.center, HOLED_DISK.marked[i - 1])


def star_family_point(t: Fraction, i: int, s: Fraction) -> Point:
    """Point at parameter s along leg i of the star with parameter t."""
    t, s = Fraction(t), Fraction(s)
    if not T_RANGE[0] <= t <= T_RANGE[1]:
        raise ValueError(f"t = {t} outside [{T_RANGE[0]}, {T_RANGE[1]}]")
    if i not in (1, 2, 3, 4):
        raise ValueError("leg index must be in 1..4")
    if not 0 <= s <= 1:
        raise ValueError("s must be in [0, 1]")
    return lerp((t, -t), HOLED_DISK.marked[i - 1], s)


def verify_star_disjointness(t: Fraction, t2: Fraction) -> bool:
    """Exact check that the stars at parameters t != t2 meet only where leg i
    of one meets leg i of the other at their shared tip p_i; legs with
    different indices may not meet at all.

    For this family the result is False for every t != t2: the stars cross
    in two interior points (leg 1 of the larger parameter meets leg 3 of the
    smaller, and its leg 2 meets the smaller's leg 4)."""
    t, t2 = Fraction(t), Fraction(t2)
    if t == t2:
        raise ValueError("parameters must differ")
    a, b = StarEmbedding(t), StarEmbedding(t2)
    for i in range(1, 5):
        for j in range(1, 5):
            kind, p = segment_common(*a.leg(i), *b.leg(j))
            if kind == DISJOINT:
                continue
            # an OVERLAP comes with p None, which is no tip: rejected below
            if i == j and p == HOLED_DISK.marked[i - 1]:
                continue
            return False
    return True


def verify_leg_family_disjointness(i: int, t: Fraction, t2: Fraction) -> bool:
    """Exact check of the per-leg disjointness that the countable-exclusion
    argument actually needs: for a fixed leg index i, the segments at t != t2
    meet only at their shared endpoint p_i.

    This is the corrected form of the full-star claim tested by
    verify_star_disjointness: whole stars at distinct parameters always cross
    (legs toward different marked points intersect near the center line), but
    each single-leg family is honestly disjoint away from p_i because p_i
    never lies on the center line y = -x."""
    t, t2 = Fraction(t), Fraction(t2)
    if t == t2:
        raise ValueError("parameters must differ")
    a, b = StarEmbedding(t), StarEmbedding(t2)
    kind, p = segment_common(*a.leg(i), *b.leg(i))
    return kind == POINT and p == HOLED_DISK.marked[i - 1]


def excluded_t_values(q: Point) -> list[Fraction]:
    """All t in range such that q lies on some leg of the star at t.

    Solved exactly from q = (1-s)(t,-t) + s p_i; each marked point excludes at
    most one t (the marked points all satisfy p_x + p_y != 0)."""
    out = []
    for p in HOLED_DISK.marked:
        denom = p[0] + p[1]
        s = (q[0] + q[1]) / denom
        if not 0 <= s <= 1:
            continue
        if s == 1:
            # q would have to be the marked point itself, which is not interior
            continue
        t = (q[0] - s * p[0]) / (1 - s)
        if T_RANGE[0] <= t <= T_RANGE[1] and on_segment(q, (t, -t), p):
            out.append(t)
    return sorted(set(out))


def select_t_avoiding(points: Sequence[Point]) -> tuple[Fraction, dict[Point, tuple[Fraction, ...]]]:
    """A parameter t0 whose star misses every point of `points`, plus the
    exact excluded-t certificate per point."""
    certificate: dict[Point, tuple[Fraction, ...]] = {}
    excluded: set[Fraction] = set()
    for q in points:
        q = (Fraction(q[0]), Fraction(q[1]))
        ts = tuple(excluded_t_values(q))
        certificate[q] = ts
        excluded.update(ts)
    # at most 4 excluded values per point: scan a fine enough rational grid,
    # whose n + 1 distinct points outnumber the excluded values
    n = 8 * (len(excluded) + 2)
    lo, hi = T_RANGE
    grid = (lo + (hi - lo) * Fraction(k, n) for k in range(n + 1))
    return next(t0 for t0 in grid if t0 not in excluded), certificate


# --- star routing inside a carpet approximation --------------------------------

class MarkedPoint(NamedTuple):
    """A point on the boundary of a peripheral square of its carpet: a cell of
    `removed`, or the outer boundary (0, 0, 3^level), in units of 3^-level."""
    cell: tuple[int, int, int]
    point: Point


class CarpetStar(NamedTuple):
    """A star routed through a carpet: leg k runs from `center` to the point
    of marks[k], its vertices the center, the cell centers where its cell
    path turns, its entry cell's center and the marked point; its point set
    is that of the polyline through every cell center of the path."""
    center: Point
    legs: tuple[tuple[Point, ...], ...]
    marks: tuple[MarkedPoint, ...]


class RoutingError(RuntimeError):
    """No star could be routed through the corridor graph of a carpet of this
    level (a finer level may route it); `carpet_index`, which
    `build_k5_scaffold` sets, names the scaffold copy whose star failed."""

    def __init__(self, msg: str, carpet_index: Optional[int] = None):
        super().__init__(msg)
        self.carpet_index = carpet_index


def _is_peripheral_cell(carpet: CarpetApprox, cell: tuple[int, int, int]) -> bool:
    """True iff `cell` is the outer boundary or a removed square of `carpet`:
    the removed square covering its corner cell, if any, is the cell itself."""
    x, y, _ = cell
    n = 3 ** carpet.level
    return cell == (0, 0, n) or (0 <= x < n and 0 <= y < n and carpet.hole(x, y) == cell)


def _split_neighbours(adj: Sequence[Sequence[int]], u: int) -> list[int]:
    """The neighbours of node u of networkx's residual network for the graph
    with increasing adjacency lists `adj`, in its order, a node k being split
    into A_k = k and B_k = ~k: the neighbours of B_k are A_k, then A_y for
    each neighbour y of k; those of A_k are B_y for y in k and its
    neighbours, in increasing order."""
    if u < 0:
        return [~u, *adj[~u]]
    return [~y for y in sorted([u, *adj[u]])]


def node_disjoint_paths(adj: Sequence[Sequence[int]], s: int, t: int) -> list[list[int]]:
    """Node-disjoint s-t paths in the simple undirected graph whose node k has
    the neighbours adj[k], each list in increasing order: the paths, in their
    order, that networkx's `node_disjoint_paths(G, s, t)` yields for the Graph
    with nodes 0, 1, ... and that adjacency, or [] where it raises
    NetworkXNoPath.

    A port of networkx's flow, step for step, that reads its residual network
    off `adj`.  `build_auxiliary_node_connectivity` splits node k into
    A_k -> B_k and each edge {k, y} into the arcs B_k -> A_y and B_y -> A_k,
    all of capacity 1; `build_residual_network` pairs each arc with a reverse
    arc of capacity 0, in the order `_split_neighbours` gives.  An arc's
    residual capacity follows from the set of arcs that carry flow.
    `edmonds_karp` augments along bidirectional BFS paths, expanding the
    smaller frontier (ties to the source side), up to min(deg s, deg t)
    paths; and `edge_disjoint_paths` follows the flow arcs out of s."""
    # H.out_degree(B_s) and H.in_degree(A_t)
    cutoff = min(len(adj[s]), len(adj[t]))
    source, target = ~s, t
    flow: set[tuple[int, int]] = set()      # the arcs u -> v that carry flow
    busy: set[int] = set()                  # the nodes of every augmenting path

    def residual(u: int, v: int) -> bool:
        """Whether arc u -> v has residual capacity: an arc of the split
        graph, A_k -> B_k or B_k -> A_y, unless it carries flow; a reverse
        arc if the arc it reverses does."""
        return (u, v) not in flow if (v == ~u) == (u >= 0) else (v, u) in flow

    # At a node no flow arc touches, only the split graph's arcs have residual
    # capacity: B_k -> A_y, read off adj[k] itself, and A_k -> B_k.
    def bidirectional_bfs():
        pred = {source: None}
        succ = {target: None}
        q_s, q_t = [source], [target]
        while True:
            q = []
            if len(q_s) <= len(q_t):
                for u in q_s:
                    if u in busy:
                        vs = [v for v in _split_neighbours(adj, u) if residual(u, v)]
                    else:
                        vs = adj[~u] if u < 0 else (~u,)
                    for v in vs:
                        if v not in pred:
                            pred[v] = u
                            if v in succ:
                                return v, pred, succ
                            q.append(v)
                if not q:
                    return None
                q_s = q
            else:
                for u in q_t:
                    if u in busy:
                        vs = [v for v in _split_neighbours(adj, u) if residual(v, u)]
                    else:
                        vs = (~u,) if u < 0 else [~y for y in adj[u]]
                    for v in vs:
                        if v not in succ:
                            succ[v] = u
                            if v in pred:
                                return v, pred, succ
                            q.append(v)
                if not q:
                    return None
                q_t = q

    for _ in range(cutoff):
        found = bidirectional_bfs()
        if found is None:
            break
        v, pred, succ = found
        path = [v]
        while path[-1] != source:
            path.append(pred[path[-1]])
        path.reverse()
        while path[-1] != target:
            path.append(succ[path[-1]])
        for u, w in zip(path, path[1:]):
            if (w, u) in flow:
                flow.remove((w, u))     # flow cancelled
            else:
                flow.add((u, w))
        busy.update(path)

    # Node capacities are 1, so every node but s has at most one flow arc
    # out: each flow arc out of s starts one path, read off arc by arc.
    paths = []
    for y in adj[s]:
        if (source, y) in flow:
            path = [s, y]
            while y != t:
                y = next(z for z in adj[y] if (~y, z) in flow)
                path.append(y)
            paths.append(path)
    return paths


# The router calls its flow routine as `nx.node_disjoint_paths`, looked up on
# this module at call time: the name stays only so that a benchmark tracer can
# put a counting stand-in at `carpet.nx` until the library records its own
# router calls.
nx = SimpleNamespace(node_disjoint_paths=node_disjoint_paths)


def _cell_center(cell: Sequence[int], level: int) -> Point:
    n = 3 ** level
    return (Fraction(2 * cell[0] + 1, 2 * n), Fraction(2 * cell[1] + 1, 2 * n))


def _entry_cell(p: Point, carpet: CarpetApprox) -> tuple[int, int]:
    """The kept cell of `carpet` whose closure contains p, a point in the
    interior of a cell edge on a peripheral boundary: of the two cells beside
    that edge, the other lies inside the removed square or outside the unit
    square.  Cell-corner points are ambiguous and rejected.

    The cell outside the peripheral square is always kept.  A removed square
    of side s is the middle ninth of a kept square of side 3s, so that cell
    lies against the edge of one of the other eight ninths; a removed square
    of side s' < s inside that ninth is the middle of a square of side 3s'
    within it, so it stays at least s' >= 1 cell away from the ninth's edges.
    The outer boundary is the edge of the kept unit square, and the same
    holds there."""
    n = 3 ** carpet.level
    xs, ys = p[0] * n, p[1] * n
    if xs.denominator == 1 and ys.denominator == 1:
        raise ValueError(f"marked point {p} sits on a cell corner; move it")
    i, j = int(xs), int(ys)
    a, b = (i - 1, j) if xs.denominator == 1 else (i, j - 1)
    if 0 <= a < n and 0 <= b < n and carpet.hole(a, b) is None:
        return (a, b)
    return (i, j)           # the other cell beside the edge: kept, see above


def embed_star_in_carpet(carpet: CarpetApprox, marks: Sequence[MarkedPoint],
                         graph: tuple[list[list[int]], list[int]]) -> CarpetStar:
    """Route a 4-pointed star through `graph`, the corridor graph of the kept
    cells of `carpet` that `corridors(carpet)` returns: the caller builds it,
    may route several stars on it, and drops it when it is done.

    Legs are polylines with exact rational vertices, pairwise disjoint except
    at the common center, avoiding every removed-square interior and touching
    peripheral boundaries only at the marked points.  Cells are read by grid
    position: the entry cells, the candidate centers and the cells of each
    path; a sink at 3^(2 level), past the last cell, joins the four entry
    cells.  A leg is written by its corners: the star's center, the centers
    of the cells where its path turns, the entry cell's center and the
    marked point.  Every center of the path between two corners lies on the
    segment joining them, so the leg's point set is the polyline through
    every cell center of the path, then the mark.
    """
    marks = tuple(marks)
    if len(marks) != 4:
        raise ValueError("exactly 4 marked points required")
    if len({m.cell for m in marks}) != 4:
        raise ValueError("marked points must lie on 4 distinct peripheral boundaries")
    if len({m.point for m in marks}) != 4:
        raise ValueError("marked points must be distinct")
    level = carpet.level
    n = 3 ** level
    for m in marks:
        if not _is_peripheral_cell(carpet, m.cell):
            raise ValueError(f"cell {m.cell} is not a peripheral square of this carpet")
        x, y, side = m.cell
        px, py = m.point[0] * n, m.point[1] * n
        if not (x <= px <= x + side and y <= py <= y + side
                and (px in (x, x + side) or py in (y, y + side))):
            raise ValueError(f"{m.point} not on the boundary of its square")
    entries = [_entry_cell(m.point, carpet) for m in marks]
    if len(set(entries)) != 4:
        raise RoutingError("two marked points enter through the same cell")

    adjacency, by_center = graph
    entry_ids = [i * n + j for i, j in entries]
    # the corridor graph: the grid cells, then a sink joined to every entry
    # cell; the sink's id, n^2, is the largest, so every list stays increasing
    sink = n * n
    joined = adjacency + [sorted(entry_ids)]
    for k in entry_ids:
        joined[k] = [*joined[k], sink]
    for center in by_center:
        if center in entry_ids or len(joined[center]) < 4:
            continue
        paths = nx.node_disjoint_paths(joined, center, sink)
        if len(paths) < 4:
            continue
        # each path ends [..., entry cell, sink]: the sink's only neighbours
        # are the four entry cells, so there are four paths, and being
        # disjoint they end at distinct entry cells, one per mark
        by_entry = {p[-2]: p for p in paths}
        legs = []
        for mark, k in zip(marks, entry_ids):
            path = by_entry[k][:-1]                     # center ... entry
            # its corners: steps join grid neighbours (+-1 or +-n), so the
            # path turns at b iff the step into b differs from the step out
            corners = [path[0], *(b for a, b, c in zip(path, path[1:], path[2:])
                                  if b - a != c - b), path[-1]]
            legs.append(tuple(_cell_center(divmod(c, n), level) for c in corners)
                        + (mark.point,))
        return CarpetStar(_cell_center(divmod(center, n), level), tuple(legs), marks)
    raise RoutingError(f"no 4 disjoint corridors found at level {level}")


def verify_star_in_carpet(carpet: CarpetApprox, star: CarpetStar) -> bool:
    """Independent exact verifier for embed_star_in_carpet outputs.

    Shares no code with the router: checks each leg endpoint, that the four
    marks are distinct peripheral squares (removed squares or the outer
    square) with each point on its square's boundary, pairwise disjointness
    away from the center, removed-square avoidance, and that peripheral
    boundaries are touched only at the marked points.

    Every leg point is scaled to integers once, by the lcm of 3^level and
    their denominators, so that the corners of the removed squares, cells of
    the 3^level grid, are integers too and every predicate runs on integers.
    An exact bounding-box test runs in front of every segment_common call, and a
    segment meets segment_in_box only for the removed squares that cover a
    grid cell its closed box touches (`CarpetApprox.hole`): closed sets whose
    closed boxes are disjoint are disjoint, and a closed removed square is the
    union of the closed cells it covers, so no verdict changes.  A hit at a
    mark is compared on the integers too, by cross-multiplying the clip
    parameter.
    """
    if len(star.legs) != 4:
        return False
    for leg, mark in zip(star.legs, star.marks):
        if leg[0] != star.center or leg[-1] != mark.point:
            return False
    n = 3 ** carpet.level
    scale = math.lcm(n, *(c.denominator for leg in star.legs for p in leg for c in p))
    unit = scale // n                   # the side of one grid cell

    def scaled(c) -> int:
        return c.numerator * (scale // c.denominator)

    legs = [[(scaled(x), scaled(y)) for x, y in leg] for leg in star.legs]
    # the marks: four distinct peripheral squares (removed squares or the
    # outer square), each point on the boundary of its square
    if len({mark.cell for mark in star.marks}) != 4:
        return False
    for leg, mark in zip(legs, star.marks):
        x, y, side = mark.cell
        if mark.cell != (0, 0, n) and not (
                0 <= x < n and 0 <= y < n and carpet.hole(x, y) == mark.cell):
            return False
        x, y, side = x * unit, y * unit, side * unit
        px, py = leg[-1]
        if not (x <= px <= x + side and y <= py <= y + side
                and (px in (x, x + side) or py in (y, y + side))):
            return False
    leg_boxes = [[_box(p, q) for p, q in zip(leg[:-1], leg[1:])] for leg in legs]
    # pairwise disjointness except at the shared center
    for a in range(4):
        for b in range(a + 1, 4):
            if not _polylines_meet_only_at(legs[a], legs[b], legs[a][0],
                                           leg_boxes[a], leg_boxes[b]):
                return False
    # peripheral avoidance
    for leg, boxes, mark in zip(legs, leg_boxes, star.marks):
        point, outer = leg[-1], mark.cell == (0, 0, n)
        for p, q, box in zip(leg[:-1], leg[1:], boxes):
            for square in _holes_meeting(box, unit, carpet):
                x, y, side = (v * unit for v in square)
                hit = segment_in_box(p, q, x, y, x + side, y + side)
                if hit is None:
                    continue
                t0, t1 = hit
                if t0 != t1:
                    return False
                # the hit p + t0 (q - p), t0 = a / b with b > 0, is the mark
                a, b = t0.numerator, t0.denominator
                if not (square == mark.cell and (q[0] - p[0]) * a == (point[0] - p[0]) * b
                        and (q[1] - p[1]) * a == (point[1] - p[1]) * b):
                    return False
            # outer boundary: stay inside, touch only at an outer marked point
            for pt in (p, q):
                if not (0 <= pt[0] <= scale and 0 <= pt[1] <= scale):
                    return False
                if (pt[0] in (0, scale) or pt[1] in (0, scale)) and not (
                        outer and pt == point):
                    return False
    return True


Box = tuple[int, int, int, int]   # closed integer box (x0, y0, x1, y1)


def _box(p: tuple[int, int], q: tuple[int, int]) -> Box:
    """Closed bounding box (x0, y0, x1, y1) of segment pq."""
    x0, x1 = sorted((p[0], q[0]))
    y0, y1 = sorted((p[1], q[1]))
    return x0, y0, x1, y1


def _holes_meeting(box: Box, unit: int, carpet: CarpetApprox) -> set[tuple[int, int, int]]:
    """The removed squares of `carpet` that cover a cell of its grid (cells
    of side `unit`) whose closed box meets the closed `box`."""
    n = 3 ** carpet.level
    x0, y0, x1, y1 = box
    i0, i1 = max(0, -(-x0 // unit) - 1), min(n - 1, x1 // unit)
    j0, j1 = max(0, -(-y0 // unit) - 1), min(n - 1, y1 // unit)
    found = {carpet.hole(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)}
    found.discard(None)
    return found


def _polylines_meet_only_at(a: Sequence[Point], b: Sequence[Point], allowed: Point,
                            boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> bool:
    """True iff polylines a and b meet nowhere but at `allowed`; boxes_a and
    boxes_b are the closed boxes of their segments, in order."""
    for i, (ax0, ay0, ax1, ay1) in enumerate(boxes_a):
        for j, (bx0, by0, bx1, by1) in enumerate(boxes_b):
            if ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0:
                continue            # closed boxes apart: the segments are too
            kind, p = segment_common(a[i], a[i + 1], b[j], b[j + 1])
            if kind == DISJOINT:
                continue
            if kind == OVERLAP or p != allowed:
                return False
    return True


# --- five-carpet K5 scaffold ----------------------------------------------------

def _others(i: int) -> list[int]:
    """The four copies other than copy i, in order."""
    return [j for j in range(5) if j != i]


class K5Scaffold(NamedTuple):
    """Five copies 0..4 of one carpet, star i embedded in copy i: a record of
    the carpet and the stars, which keeps no routing state.  The stars carry
    the identification: leg k of star i ends at the mark where copy i is
    glued to `_others(i)[k]`.  Copies marked alike share one star.  `marks`
    and `edges` are computed from the stars each time they are read."""
    carpet: CarpetApprox
    stars: tuple[CarpetStar, ...]

    @property
    def level(self) -> int:
        return self.carpet.level

    @property
    def marks(self) -> dict[tuple[int, int], MarkedPoint]:
        """For each unordered pair {i, j}, the marked point used in copy i
        (key (i, j)) and in copy j (key (j, i)); the two are identified as
        the single abstract point p_ij."""
        return {(i, j): mark for i, star in enumerate(self.stars)
                for j, mark in zip(_others(i), star.marks)}

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The pairs (i, j), i < j, where copy i has a mark for copy j or copy
        j one for copy i, in increasing order: the edges that
        `scaffold_to_json` lists and `scaffold_svg` draws."""
        return sorted({tuple(sorted(k)) for k in self.marks})

    def adjacency(self):
        marks = self.marks
        adj = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                if i != j and (i, j) in marks and (j, i) in marks:
                    adj[i][j] = 1
        return adj


# the level-1 center square, then of the eight level-2 squares in (x, y) order
# the first, the last and the fourth: the squares every scaffold marks, as
# cells of the level-2 grid
_MARK_CELLS = ((3, 3, 3), (1, 1, 1), (7, 7, 1), (4, 1, 1))


def _default_mark_assignment(carpet: CarpetApprox, rng=None) -> list[MarkedPoint]:
    """Four peripheral squares for the star's four legs: the level-1 center
    square plus three level-2 squares, marked at deterministic (or seeded) edge
    midpoints.  The carpet's level is at least 2, as `build_k5_scaffold`
    checks."""
    directions = ["left", "bottom", "top", "right"]
    if rng is not None:
        directions = [rng.choice(["left", "right", "top", "bottom"]) for _ in range(4)]
    k = 3 ** (carpet.level - 2)
    marks = []
    for cell, d in zip(_MARK_CELLS, directions):
        cell = tuple(v * k for v in cell)
        marks.append(MarkedPoint(cell, _cell_edge_midpoint(cell, d, carpet.level)))
    return marks


def _cell_edge_midpoint(cell: tuple[int, int, int], direction: str, level: int) -> Point:
    """Midpoint of the first grid-cell edge on the chosen side of the square
    `cell` (keeps marked points off cell corners at the carpet's resolution)."""
    n = 3 ** level
    x, y, side = cell
    if direction in ("left", "right"):
        return (Fraction(x if direction == "left" else x + side, n), Fraction(2 * y + 1, 2 * n))
    return (Fraction(2 * x + 1, 2 * n), Fraction(y if direction == "bottom" else y + side, n))


def build_k5_scaffold(level: int = 2, seed: Optional[int] = None) -> K5Scaffold:
    """Five copies of one carpet, ten identified peripheral-circle pairs, five
    embedded 4-pointed stars: the combinatorial K5 certificate.  The corridor
    graph is built once, each distinct mark assignment is routed on it once,
    and the graph is dropped on return: the scaffold does not hold it.  This
    routes only; verify_k5_graph is the check of the stars and the graph.  A
    level below 2 is a ValueError, raised before any carpet is built: the
    marks lie on level-2 squares."""
    import random

    if level < 2:
        raise ValueError(f"scaffold needs carpets of level >= 2, got {level}")
    rng = random.Random(seed) if seed is not None else None
    carpet = build_carpet_approx(level)
    graph = corridors(carpet)
    routed: dict[tuple[MarkedPoint, ...], CarpetStar] = {}
    stars = []
    for i in range(5):
        assigned = tuple(_default_mark_assignment(carpet, rng))
        if assigned not in routed:
            try:
                routed[assigned] = embed_star_in_carpet(carpet, assigned, graph)
            except RoutingError as exc:
                raise RoutingError(str(exc), carpet_index=i) from exc
        stars.append(routed[assigned])
    return K5Scaffold(carpet, tuple(stars))


def verify_k5_graph(s: K5Scaffold) -> bool:
    """True iff the abstract graph is K5 and every star re-verifies in the
    carpet (legs disjoint except at the center, peripheral contact only at the
    designated identified points).  A star shared by several copies is
    verified once."""
    if len(s.stars) != 5 or s.adjacency() != [[int(i != j) for j in range(5)] for i in range(5)]:
        return False
    distinct = {id(star): star for star in s.stars}   # by identity: a hash reads every leg
    return all(verify_star_in_carpet(s.carpet, star) for star in distinct.values())


def scaffold_to_json(s: K5Scaffold) -> str:
    """The scaffold as `json.dumps(..., indent=2)` writes {"level",
    "vertices", "edges", "adjacency", "stars"}: the vertices "v1" to "v5";
    each pair (i, j) of `edges` as ["v<i+1>", "v<j+1>"]; the 5 x 5 0/1
    `adjacency`; and per copy i, {"carpet": i, "center": [x, y], "legs":
    [{"to_carpet": j, "polyline": [[x, y], ...]}, ...]}, leg k going to
    copy `_others(i)[k]` and every coordinate written as the str of its
    `Fraction`.  Written directly for the fixed schema, as `report_to_json`
    is: such a str needs no JSON escaping."""
    stars = []
    for i, st in enumerate(s.stars):
        legs = [_LEG.format(j, _array([_POINT.format(str(x), str(y)) for x, y in leg], 5))
                for j, leg in zip(_others(i), st.legs)]
        x, y = st.center
        stars.append(_STAR.format(i, str(x), str(y), _array(legs, 3)))
    adjacency = [_array([str(a) for a in row], 2) for row in s.adjacency()]
    return "\n".join((
        "{",
        f'  "level": {s.level},',
        f'  "vertices": {_VERTICES},',
        f'  "edges": {_array([_EDGE.format(i + 1, j + 1) for i, j in s.edges], 1)},',
        f'  "adjacency": {_array(adjacency, 1)},',
        f'  "stars": {_array(stars, 1)}',
        "}",
    ))


# entries of the scaffold document, each laid out as `_array` lays out an
# entry of its array: an edge and a star (with its center) in arrays of
# depth 1, a leg in one of depth 3 and a polyline point in one of depth 5
_VERTICES = _array([f'"v{i + 1}"' for i in range(5)], 1)
_EDGE = '[\n      "v{}",\n      "v{}"\n    ]'
_STAR = ('{{\n      "carpet": {},\n      "center": [\n        "{}",\n        "{}"\n'
         '      ],\n      "legs": {}\n    }}')
_LEG = '{{\n          "to_carpet": {},\n          "polyline": {}\n        }}'
_POINT = '[\n              "{}",\n              "{}"\n            ]'


# --- SVG rendering ----------------------------------------------------------------

def _hole_rects(level: int, squares: Sequence[tuple[int, int, int]], side: float,
                ox: float, oy: float, spec: str, style: str) -> Iterator[str]:
    """Yield one `<rect ... style/>` per square of `squares`, the `removed`
    squares of the level-`level` carpet, in order, for the carpet drawn as
    the square of side `side` whose top left corner is (ox, oy), y pointing
    down: the cell (x, y, s) has x = ox + x/n*side, y = oy + side - y/n*side
    - s/n*side and width and height s/n*side, with n = 3^level, each
    written with the format `spec`.  A caller drawing several copies reads
    `removed` once and passes it to each.

    Every string is formatted once, from exactly that float expression
    evaluated in that order (an algebraically equal one may round
    differently): x from a list by grid integer, the width by side (a power
    of 3 below n), and y, with the rest of the element, once per pair
    (y, s), since removed squares share few rows."""
    n = 3 ** level
    at = [k / n * side for k in range(n + 1)]   # k / n rounds correctly: float(Fraction(k, n))
    xs = [format(ox + v, spec) for v in at]
    widths = {3 ** k: format(at[3 ** k], spec) for k in range(level)}
    tails: dict[tuple[int, int], str] = {}
    for x, y, s in squares:
        tail = tails.get((y, s))
        if tail is None:
            w = widths[s]
            tail = tails[y, s] = (f'{format(oy + side - at[y] - at[s], spec)}" '
                                  f'width="{w}" height="{w}" {style}/>')
        yield f'<rect x="{xs[x]}" y="{tail}'


def carpet_svg(c: CarpetApprox) -> str:
    """The carpet on a 600 x 600 canvas: a background `<rect>`, then one
    white `<rect>` per removed square in `removed` order, x, y, width and
    height written `.3f` from x/n*600 and the like (`_hole_rects`, y pointing
    down), n = 3^level."""
    size = 600.0
    body = [f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="#e8e0d0"/>',
            *_hole_rects(c.level, c.removed, size, 0.0, 0.0, ".3f",
                         'fill="#ffffff" stroke="#999" stroke-width="0.5"')]
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
            f'viewBox="0 0 {size:.0f} {size:.0f}">\n' + "\n".join(body) + "\n</svg>\n")


def scaffold_svg(s: K5Scaffold) -> str:
    """Figure-2 style diagram on a 1200 x 1200 canvas: five 280 x 280
    carpets in a ring, then dotted identification edges between paired
    peripheral circles.  Per copy i, in order: its frame `<rect>` (`.1f`),
    its removed squares (`_hole_rects`, `.2f`), one `<polyline>` per leg, a
    `<circle>` at the star's center and a `<text>` label; then one `<line>`
    per pair of `edges`.  A point p of copy i, whose frame's top left corner
    is (ox, oy), is drawn at (ox + float(p_x)*280, oy + (280 - float(p_y)*280)),
    written `.2f`."""
    size, cs = 1200.0, 280.0
    centers = []
    for i in range(5):
        ang = math.pi / 2 + 2 * math.pi * i / 5
        centers.append((size / 2 + 400 * math.cos(ang) - cs / 2,
                        size / 2 - 400 * math.sin(ang) - cs / 2))
    body = []
    removed, marks = s.carpet.removed, s.marks

    def to_abs(i, p):
        ox, oy = centers[i]
        return (ox + float(p[0]) * cs, oy + (cs - float(p[1]) * cs))

    for i, star in enumerate(s.stars):
        ox, oy = centers[i]
        body.append(f'<rect x="{ox:.1f}" y="{oy:.1f}" width="{cs:.0f}" height="{cs:.0f}" '
                    'fill="#e8e0d0" stroke="#555"/>')
        body += _hole_rects(s.level, removed, cs, ox, oy, ".2f",
                            'fill="#ffffff" stroke="#aaa" stroke-width="0.4"')
        for leg in star.legs:
            pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in (to_abs(i, p) for p in leg)])
            body.append(f'<polyline points="{pts}" fill="none" stroke="#b03030" stroke-width="1.5"/>')
        cx, cy = to_abs(i, star.center)
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#b03030"/>')
        body.append(f'<text x="{ox + cs / 2:.1f}" y="{oy - 8:.1f}" text-anchor="middle" '
                    f'font-size="18">carpet {i + 1}</text>')
    for i, j in s.edges:
        a = to_abs(i, marks[(i, j)].point)
        b = to_abs(j, marks[(j, i)].point)
        body.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
                    'stroke="#3050b0" stroke-width="1" stroke-dasharray="5,4"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
            f'viewBox="0 0 {size:.0f} {size:.0f}">\n' + "\n".join(body) + "\n</svg>\n")
