"""Sierpinski-carpet approximations, star embeddings, and the five-carpet
K5 scaffold.

All geometry is exact rational.  The carpet is the standard middle-ninth
model in the unit square; the removed open squares are the peripheral
Jordan-region approximants (the outer boundary counts as one more peripheral
circle).  The star-embedding router works on the corridor graph of kept
cells, held as integer node ids and adjacency lists; its flow routine,
`node_disjoint_paths`, is a port of networkx's node-split Edmonds-Karp to
those arrays and returns exactly the paths networkx returns (networkx stays
its oracle in the tests).  A verifier that shares no code with the router
re-checks every output with exact segment predicates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import SimpleNamespace
from typing import Optional, Sequence

from .geometry import (DISJOINT, OVERLAP, POINT, Point, lerp, on_segment,
                       segment_common, segment_in_box)

MAX_CARPET_LEVEL = 7

F0, F1 = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Square:
    """Axis-aligned square [x, x+side] x [y, y+side]."""
    x: Fraction
    y: Fraction
    side: Fraction

    def corners(self) -> tuple[Point, Point, Point, Point]:
        x, y, s = self.x, self.y, self.side
        return ((x, y), (x + s, y), (x + s, y + s), (x, y + s))

    def contains_open(self, p: Point) -> bool:
        return self.x < p[0] < self.x + self.side and self.y < p[1] < self.y + self.side

    def on_boundary(self, p: Point) -> bool:
        x, y, s = self.x, self.y, self.side
        if not (x <= p[0] <= x + s and y <= p[1] <= y + s):
            return False
        return p[0] == x or p[0] == x + s or p[1] == y or p[1] == y + s

    def edge_midpoint(self, direction: str) -> Point:
        x, y, s = self.x, self.y, self.side
        h = s / 2
        return {"left": (x, y + h), "right": (x + s, y + h),
                "bottom": (x + h, y), "top": (x + h, y + s)}[direction]

    def diameter_squared(self) -> Fraction:
        return 2 * self.side * self.side


@dataclass(frozen=True)
class CarpetApprox:
    """The level-`level` middle-ninth carpet; its squares are built on first
    read, and the integer cells and `_cell_kept` answer everything else."""
    level: int

    @cached_property
    def kept(self) -> tuple[Square, ...]:   # 8^level squares of side 3^-level
        return _carpet_squares(self.level, removed=False)

    @cached_property
    def removed(self) -> tuple[Square, ...]:   # cumulative, all scales
        return _carpet_squares(self.level, removed=True)

    @cached_property
    def corridors(self) -> tuple[list[tuple[int, int]], list[int], Network, list[int]]:
        """The corridor graph of kept cells as integer arrays, built once per
        carpet: the kept cells (i, j) in row-major order, whose position is
        their node id; the node id of cell (i, j) at i * 3^level + j, or -1
        for a removed cell; the `residual_network` of the graph whose node
        has the neighbours (i-1, j), (i, j-1), (i, j+1), (i+1, j) that are
        kept, in that order; and the node ids by distance from the grid
        center, ties in id order (the router's candidate centers)."""
        level, n = self.level, 3 ** self.level
        cells: list[tuple[int, int]] = []
        index = [-1] * (n * n)
        for i in range(n):
            for j in range(n):
                if _cell_kept(i, j, level):
                    index[i * n + j] = len(cells)
                    cells.append((i, j))
        adjacency = []
        for i, j in cells:
            r = i * n + j
            adjacency.append([k for k in (index[r - n] if i > 0 else -1,
                                          index[r - 1] if j > 0 else -1,
                                          index[r + 1] if j < n - 1 else -1,
                                          index[r + n] if i < n - 1 else -1) if k >= 0])
        by_center = sorted(range(len(cells)), key=lambda k: (
            abs(2 * cells[k][0] + 1 - n) + abs(2 * cells[k][1] + 1 - n), k))
        return cells, index, residual_network(adjacency), by_center

OUTER = Square(F0, F0, F1)


def _carpet_squares(level: int, removed: bool) -> tuple[Square, ...]:
    """The kept or the removed squares of the level-`level` carpet: at each
    step every kept square loses its center.

    The subdivision runs on integer cells (x, y, side) in units of 3^-level;
    each cell becomes a Square through one shared table of the coordinates
    k / 3^level."""
    n = 3 ** level
    kept = [(0, 0, n)]
    holes: list[tuple[int, int, int]] = []
    for _ in range(level):
        nxt = []
        for x, y, side in kept:
            s = side // 3
            for i in range(3):
                for j in range(3):
                    sub = (x + i * s, y + j * s, s)
                    if i == 1 and j == 1:
                        holes.append(sub)
                    else:
                        nxt.append(sub)
        kept = nxt
    coord = [Fraction(k, n) for k in range(n + 1)]
    return tuple(Square(coord[x], coord[y], coord[s])
                 for x, y, s in (holes if removed else kept))


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

@dataclass(frozen=True)
class HoledDisk:
    """Unit disk with three radius-1/4 holes; marked points face the origin
    (p4 = (1,0) on the outer circle)."""
    hole_centers: tuple[Point, ...] = (
        (Fraction(-1, 2), F0), (F0, Fraction(1, 2)), (F0, Fraction(-1, 2)))
    hole_radius: Fraction = Fraction(1, 4)
    marked: tuple[Point, ...] = (
        (Fraction(-1, 4), F0), (F0, Fraction(1, 4)), (F0, Fraction(-1, 4)), (F1, F0))


HOLED_DISK = HoledDisk()
T_RANGE = (Fraction(-1, 8), Fraction(1, 8))


@dataclass(frozen=True)
class StarEmbedding:
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
            if kind == OVERLAP:
                return False
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
    # at most 4 excluded values per point: scan a fine enough rational grid
    n = 8 * (len(excluded) + 2)
    lo, hi = T_RANGE
    for k in range(n + 1):
        t0 = lo + (hi - lo) * Fraction(k, n)
        if t0 not in excluded:
            return t0, certificate
    raise AssertionError("unreachable: finitely many excluded t on an infinite grid")


# --- star routing inside a carpet approximation --------------------------------

@dataclass(frozen=True)
class MarkedPoint:
    """A point on the boundary of a peripheral square (or the outer boundary)."""
    square: Square      # one of carpet.removed, or OUTER
    point: Point


@dataclass(frozen=True)
class CarpetStar:
    center: Point
    legs: tuple[tuple[Point, ...], ...]   # leg k runs center -> marked point k
    marks: tuple[MarkedPoint, ...]


class RoutingError(RuntimeError):
    """No route found at this carpet level; retry at level + 1."""

    def __init__(self, msg: str, carpet_index: Optional[int] = None):
        super().__init__(msg)
        self.carpet_index = carpet_index


def _cell_kept(i: int, j: int, level: int) -> bool:
    for _ in range(level):
        if i % 3 == 1 and j % 3 == 1:
            return False
        i //= 3
        j //= 3
    return True


Network = list[list[tuple[int, int]]]


def residual_network(adj: Sequence[Sequence[int]]) -> Network:
    """networkx's residual network for node-disjoint paths in the simple
    undirected graph whose node k has the neighbours adj[k], in insertion
    order (the Graph with nodes 0, 1, ... and that adjacency).

    `build_auxiliary_node_connectivity` splits node k into A = 2k -> B = 2k+1
    and turns each edge of G.edges() into the arcs B -> A both ways;
    `build_residual_network` then pairs each of those arcs, in H.edges()
    order, with a reverse arc.  Entry u lists (v, arc u -> v) in R.succ[u]
    order; arc 2p is the p-th auxiliary arc (capacity 1) and 2p + 1 its
    reverse (capacity 0).  R.pred[u] has the same node order, with arc ^ 1."""
    size = 2 * len(adj)
    arcs_from: list[list[int]] = [[] for _ in range(size)]   # H.succ of the B nodes
    for k, nbrs in enumerate(adj):
        for y in nbrs:
            if y > k:                   # G.edges() reports {k, y} once, from k
                arcs_from[2 * k + 1].append(2 * y)
                arcs_from[2 * y + 1].append(2 * k)
    network: Network = [[] for _ in range(size)]
    arc = 0
    for u in range(size):
        for v in (u + 1,) if u % 2 == 0 else arcs_from[u]:
            network[u].append((v, arc))
            network[v].append((u, arc + 1))
            arc += 2
    return network


def _join_sink(network: Network, entries: Sequence[int]) -> Network:
    """`residual_network` of the graph with one more node, the sink, joined to
    the nodes `entries`, from the network of the graph without it: every arc
    the sink brings comes last in its lists, in the order the construction
    would insert it.  `network` itself is not changed."""
    t = len(network) // 2
    arc = sum(map(len, network))
    joined = network + [[], []]
    entries = sorted(entries)
    for e in entries:
        joined[2 * e + 1] = joined[2 * e + 1] + [(2 * t, arc)]
        joined[2 * t].append((2 * e + 1, arc + 1))
        arc += 2
    joined[2 * t].append((2 * t + 1, arc))
    joined[2 * t + 1].append((2 * t, arc + 1))
    arc += 2
    for e in entries:
        joined[2 * t + 1].append((2 * e, arc))
        joined[2 * e] = joined[2 * e] + [(2 * t + 1, arc + 1)]
        arc += 2
    return joined


def node_disjoint_paths(network: Network, s: int, t: int) -> list[list[int]]:
    """Node-disjoint s-t paths over a `residual_network`: the paths, in their
    order, that networkx's `node_disjoint_paths(G, s, t)` yields for its
    graph, or [] where it raises NetworkXNoPath.

    A port of networkx's flow to integer arrays, step for step:
    `edmonds_karp` augments along bidirectional BFS paths, expanding the
    smaller frontier (ties to the source side), up to min(deg s, deg t)
    paths; and `edge_disjoint_paths` walks the saturated arcs from s, taking
    each node's last one first and dropping dead ends."""
    # H.out_degree(B_s) and H.in_degree(A_t): each list holds one arc of the split
    cutoff = min(len(network[2 * s + 1]), len(network[2 * t])) - 1
    if not cutoff:
        return []
    res = [1, 0] * (sum(map(len, network)) // 2)      # capacity - flow, per arc
    source, target = 2 * s + 1, 2 * t

    def bidirectional_bfs():
        pred = {source: None}
        succ = {target: None}
        q_s, q_t = [source], [target]
        while True:
            q = []
            if len(q_s) <= len(q_t):
                for u in q_s:
                    for v, e in network[u]:
                        if res[e] and v not in pred:
                            pred[v] = u
                            if v in succ:
                                return v, pred, succ
                            q.append(v)
                if not q:
                    return None
                q_s = q
            else:
                for u in q_t:
                    for v, e in network[u]:
                        if res[e ^ 1] and v not in succ:
                            succ[v] = u
                            if v in pred:
                                return v, pred, succ
                            q.append(v)
                if not q:
                    return None
                q_t = q

    flow = 0
    while flow < cutoff:
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
            for x, e in network[u]:
                if x == w:
                    res[e] -= 1
                    res[e ^ 1] += 1
                    break
        flow += 1
    if not flow:
        return []

    saturated: dict[int, list[int]] = {}

    def saturated_from(u: int) -> list[int]:
        if u not in saturated:
            saturated[u] = [v for v, e in network[u] if not e & 1 and not res[e]]
        return saturated[u]

    paths = []
    found_paths = 0
    for v in list(saturated_from(source)):
        if found_paths >= cutoff:
            break
        path = [source]
        if v == target:
            path.append(v)
            paths.append(path)
            continue
        u = v
        while u != target:
            path.append(u)
            nxt = saturated_from(u)
            if not nxt:
                break
            u = nxt.pop()
        else:
            path.append(target)
            paths.append(path)
            found_paths += 1
    return [list(dict.fromkeys(x >> 1 for x in path)) for path in paths]


# The router calls its flow routine as `nx.node_disjoint_paths`, looked up on
# this module at call time: the name stays only so that a benchmark tracer can
# put a counting stand-in at `carpet.nx` until the library records its own
# router calls.
nx = SimpleNamespace(node_disjoint_paths=node_disjoint_paths)


def _cell_center(cell: tuple[int, int], level: int) -> Point:
    n = 3 ** level
    return (Fraction(2 * cell[0] + 1, 2 * n), Fraction(2 * cell[1] + 1, 2 * n))


def _entry_cell(p: Point, level: int) -> tuple[int, int]:
    """The kept cell whose closure contains p, a point in the interior of a
    cell edge on a peripheral boundary: of the two cells beside that edge, the
    other lies inside the removed square or outside the unit square.
    Cell-corner points are ambiguous and rejected."""
    n = 3 ** level
    xs, ys = p[0] * n, p[1] * n
    if xs.denominator == 1 and ys.denominator == 1:
        raise ValueError(f"marked point {p} sits on a cell corner; move it")
    i, j = int(xs), int(ys)
    beside = ((i - 1, j), (i, j)) if xs.denominator == 1 else ((i, j - 1), (i, j))
    for i, j in beside:
        if 0 <= i < n and 0 <= j < n and _cell_kept(i, j, level):
            return (i, j)
    raise ValueError(f"marked point {p} has no kept cell beside it")


def embed_star_in_carpet(carpet: CarpetApprox, marks: Sequence[MarkedPoint]) -> CarpetStar:
    """Route a 4-pointed star through the corridor graph of kept cells.

    Legs are polylines with exact rational vertices, pairwise disjoint except
    at the common center, avoiding every removed-square interior and touching
    peripheral boundaries only at the marked points.
    """
    marks = tuple(marks)
    if len(marks) != 4:
        raise ValueError("exactly 4 marked points required")
    if len({m.square for m in marks}) != 4:
        raise ValueError("marked points must lie on 4 distinct peripheral boundaries")
    if len({m.point for m in marks}) != 4:
        raise ValueError("marked points must be distinct")
    removed_set = set(carpet.removed) | {OUTER}
    for m in marks:
        if m.square not in removed_set:
            raise ValueError(f"{m.square} is not a peripheral square of this carpet")
        if not m.square.on_boundary(m.point):
            raise ValueError(f"{m.point} not on the boundary of its square")
    level = carpet.level
    entries = [_entry_cell(m.point, level) for m in marks]
    if len(set(entries)) != 4:
        raise RoutingError("two marked points enter through the same cell")

    n = 3 ** level
    cells, index, network, by_center = carpet.corridors
    entry_ids = [index[i * n + j] for i, j in entries]
    # the corridor graph: the kept cells, then a sink joined to every entry cell
    sink = len(cells)
    graph = _join_sink(network, entry_ids)
    for center in by_center:
        # the center's degree: its B node's arcs but the one back to its A node
        if center in entry_ids or len(graph[2 * center + 1]) - 1 < 4:
            continue
        paths = nx.node_disjoint_paths(graph, center, sink)
        if len(paths) < 4:
            continue
        # each path ends [..., entry cell, sink]; match paths to marks by entry cell
        by_entry = {p[-2]: p for p in paths[:4]}
        if set(by_entry) != set(entry_ids):
            continue
        legs = []
        for mark, k in zip(marks, entry_ids):
            leg = tuple(_cell_center(cells[c], level) for c in by_entry[k][:-1])  # center ... entry
            legs.append(leg + (mark.point,))
        return CarpetStar(_cell_center(cells[center], level), tuple(legs), marks)
    raise RoutingError(f"no 4 disjoint corridors found at level {level}")


def verify_star_in_carpet(carpet: CarpetApprox, star: CarpetStar) -> bool:
    """Independent exact verifier for embed_star_in_carpet outputs.

    Shares no code with the router: checks each leg endpoint, pairwise
    disjointness away from the center, removed-square avoidance, and that
    peripheral boundaries are touched only at the marked points.

    An exact integer bounding-box test (coordinates scaled by the lcm of all
    denominators) runs in front of every segment_common and segment_in_box
    call; closed sets whose closed boxes are disjoint are disjoint, so only
    pairs that can meet reach the exact predicates and no verdict changes.
    """
    if len(star.legs) != 4:
        return False
    for leg, mark in zip(star.legs, star.marks):
        if leg[0] != star.center or leg[-1] != mark.point:
            return False
    scale = math.lcm(*(c.denominator for leg in star.legs for p in leg for c in p),
                     *(c.denominator for sq in carpet.removed
                       for c in (sq.x, sq.y, sq.side)))
    leg_boxes = [[_scaled_box(p, q, scale) for p, q in zip(leg[:-1], leg[1:])]
                 for leg in star.legs]
    removed_boxes = [_scaled_box((sq.x, sq.y), (sq.x + sq.side, sq.y + sq.side), scale)
                     for sq in carpet.removed]
    # pairwise disjointness except at the shared center
    for a in range(4):
        for b in range(a + 1, 4):
            if not _polylines_meet_only_at(star.legs[a], star.legs[b], star.center,
                                           leg_boxes[a], leg_boxes[b]):
                return False
    # peripheral avoidance
    for leg, mark, boxes in zip(star.legs, star.marks, leg_boxes):
        segs = list(zip(leg[:-1], leg[1:], boxes))
        for sq, box in zip(carpet.removed, removed_boxes):
            for p, q, seg_box in segs:
                if not _boxes_meet(seg_box, box):
                    continue
                hit = segment_in_box(p, q, sq.x, sq.y, sq.x + sq.side, sq.y + sq.side)
                if hit is None:
                    continue
                t0, t1 = hit
                if t0 != t1:
                    return False
                touch = lerp(p, q, t0)
                if not (sq == mark.square and touch == mark.point):
                    return False
        # outer boundary: stay inside, touch only at an outer marked point
        for p, q, _ in segs:
            for pt in (p, q):
                if not (F0 <= pt[0] <= F1 and F0 <= pt[1] <= F1):
                    return False
            for pt in _outer_touches(p, q):
                if not (mark.square == OUTER and pt == mark.point):
                    return False
    return True


Box = tuple[int, int, int, int]   # closed integer box (x0, y0, x1, y1)


def _scaled_box(p: Point, q: Point, scale: int) -> Box:
    """Closed bounding box (x0, y0, x1, y1) of segment pq, times `scale`, which
    every coordinate's denominator divides."""
    x0, x1 = sorted((p[0].numerator * (scale // p[0].denominator),
                     q[0].numerator * (scale // q[0].denominator)))
    y0, y1 = sorted((p[1].numerator * (scale // p[1].denominator),
                     q[1].numerator * (scale // q[1].denominator)))
    return x0, y0, x1, y1


def _boxes_meet(a: Box, b: Box) -> bool:
    """True iff the closed boxes share a point (touching counts)."""
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


def _outer_touches(p: Point, q: Point) -> list[Point]:
    """Points where segment pq (inside the unit square) meets the outer boundary."""
    touches = []
    for pt in (p, q):
        if pt[0] in (F0, F1) or pt[1] in (F0, F1):
            touches.append(pt)
    # a segment with both endpoints strictly inside cannot touch the boundary
    return touches


def _polylines_meet_only_at(a: Sequence[Point], b: Sequence[Point], allowed: Point,
                            boxes_a: Sequence[Box], boxes_b: Sequence[Box]) -> bool:
    """True iff polylines a and b meet nowhere but at `allowed`; boxes_a and
    boxes_b are the scaled closed boxes of their segments, in order."""
    for i in range(len(a) - 1):
        for j in range(len(b) - 1):
            if not _boxes_meet(boxes_a[i], boxes_b[j]):
                continue
            kind, p = segment_common(a[i], a[i + 1], b[j], b[j + 1])
            if kind == DISJOINT:
                continue
            if kind == OVERLAP or p != allowed:
                return False
    return True


# --- five-carpet K5 scaffold ----------------------------------------------------

@dataclass(frozen=True)
class K5Scaffold:
    level: int
    carpets: tuple[CarpetApprox, ...]                # indexed 0..4 (abstract carpets)
    stars: tuple[CarpetStar, ...]                    # star i embedded in carpet i
    # identification: for each unordered pair {i, j}, the peripheral square and
    # marked point used in carpet i (key (i, j)) and in carpet j (key (j, i));
    # the two marked points are identified as the single abstract point p_ij.
    marks: dict[tuple[int, int], MarkedPoint] = field(hash=False)

    def adjacency(self):
        adj = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(5):
                if i != j and (i, j) in self.marks and (j, i) in self.marks:
                    adj[i][j] = 1
        return adj


def _default_mark_assignment(carpet: CarpetApprox, rng=None) -> list[MarkedPoint]:
    """Four peripheral squares for the star's four legs: the level-1 center
    square plus three level-2 squares, marked at deterministic (or seeded) edge
    midpoints."""
    if carpet.level < 2:
        raise RoutingError("scaffold needs carpets of level >= 2")
    # the level-1 center square, then of the eight level-2 squares in (x, y)
    # order the first, the last and the fourth; no scan of carpet.removed
    third, ninth = Fraction(1, 3), Fraction(1, 9)
    squares = [Square(third, third, third), Square(ninth, ninth, ninth),
               Square(7 * ninth, 7 * ninth, ninth), Square(4 * ninth, ninth, ninth)]
    directions = ["left", "bottom", "top", "right"]
    if rng is not None:
        directions = [rng.choice(["left", "right", "top", "bottom"]) for _ in range(4)]
    marks = []
    for sq, d in zip(squares, directions):
        marks.append(MarkedPoint(sq, _cell_edge_midpoint(sq, d, carpet.level)))
    return marks


def _cell_edge_midpoint(sq: Square, direction: str, level: int) -> Point:
    """Midpoint of one grid-cell edge on the chosen side of the square (keeps
    marked points off cell corners at the carpet's resolution)."""
    n = 3 ** level
    cell = Fraction(1, n)
    if direction in ("left", "right"):
        x = sq.x if direction == "left" else sq.x + sq.side
        return (x, sq.y + cell / 2)
    y = sq.y if direction == "bottom" else sq.y + sq.side
    return (sq.x + cell / 2, y)


def build_k5_scaffold(level: int = 2, seed: Optional[int] = None) -> K5Scaffold:
    """Five carpets, ten identified peripheral-circle pairs, five embedded
    4-pointed stars: the combinatorial K5 certificate.  This routes only;
    verify_k5_graph is the check of the stars and the graph."""
    import random

    rng = random.Random(seed) if seed is not None else None
    carpets = (build_carpet_approx(level),) * 5   # immutable, so one is shared
    marks: dict[tuple[int, int], MarkedPoint] = {}
    stars = []
    for i in range(5):
        others = [j for j in range(5) if j != i]
        assigned = _default_mark_assignment(carpets[i], rng)
        for j, mp in zip(others, assigned):
            marks[(i, j)] = mp
        try:
            stars.append(embed_star_in_carpet(carpets[i], assigned))
        except RoutingError as exc:
            raise RoutingError(str(exc), carpet_index=i) from exc
    return K5Scaffold(level, carpets, tuple(stars), marks)


def verify_k5_graph(s: K5Scaffold) -> bool:
    """True iff the abstract graph is K5 and every star re-verifies in its
    carpet (legs disjoint except at the center, peripheral contact only at the
    designated identified points)."""
    adj = s.adjacency()
    for i in range(5):
        for j in range(5):
            expected = 0 if i == j else 1
            if adj[i][j] != expected:
                return False
    for i in range(5):
        if len(s.stars) <= i or not verify_star_in_carpet(s.carpets[i], s.stars[i]):
            return False
        others = [j for j in range(5) if j != i]
        for j, mark in zip(others, s.stars[i].marks):
            if s.marks.get((i, j)) != mark:
                return False
    return True


def scaffold_to_json(s: K5Scaffold) -> str:
    def pt(p):
        return [str(p[0]), str(p[1])]

    edges = sorted({tuple(sorted(k)) for k in s.marks})
    return json.dumps({
        "level": s.level,
        "vertices": [f"v{i+1}" for i in range(5)],
        "edges": [[f"v{i+1}", f"v{j+1}"] for i, j in edges],
        "adjacency": s.adjacency(),
        "stars": [
            {
                "carpet": i,
                "center": pt(st.center),
                "legs": [
                    {"to_carpet": j, "polyline": [pt(p) for p in leg]}
                    for j, leg in zip([k for k in range(5) if k != i], st.legs)
                ],
            }
            for i, st in enumerate(s.stars)
        ],
    }, indent=2)


# --- SVG rendering ----------------------------------------------------------------

def carpet_svg(c: CarpetApprox) -> str:
    size = 600.0
    body = [f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="#e8e0d0"/>']
    for sq in c.removed:
        x, y, s = float(sq.x) * size, float(sq.y) * size, float(sq.side) * size
        body.append(f'<rect x="{x:.3f}" y="{size - y - s:.3f}" width="{s:.3f}" '
                    f'height="{s:.3f}" fill="#ffffff" stroke="#999" stroke-width="0.5"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
            f'viewBox="0 0 {size:.0f} {size:.0f}">\n' + "\n".join(body) + "\n</svg>\n")


def scaffold_svg(s: K5Scaffold) -> str:
    """Figure-2 style diagram: five carpets in a ring, dotted identification
    edges between paired peripheral circles."""
    size, cs = 1200.0, 280.0
    centers = []
    for i in range(5):
        ang = math.pi / 2 + 2 * math.pi * i / 5
        centers.append((size / 2 + 400 * math.cos(ang) - cs / 2,
                        size / 2 - 400 * math.sin(ang) - cs / 2))
    body = []

    def to_abs(i, p):
        ox, oy = centers[i]
        return (ox + float(p[0]) * cs, oy + (cs - float(p[1]) * cs))

    for i, (c, star) in enumerate(zip(s.carpets, s.stars)):
        ox, oy = centers[i]
        body.append(f'<rect x="{ox:.1f}" y="{oy:.1f}" width="{cs:.0f}" height="{cs:.0f}" '
                    'fill="#e8e0d0" stroke="#555"/>')
        for sq in c.removed:
            x, y, side = float(sq.x) * cs, float(sq.y) * cs, float(sq.side) * cs
            body.append(f'<rect x="{ox + x:.2f}" y="{oy + cs - y - side:.2f}" width="{side:.2f}" '
                        f'height="{side:.2f}" fill="#ffffff" stroke="#aaa" stroke-width="0.4"/>')
        for leg in star.legs:
            pts = " ".join(f"{to_abs(i, p)[0]:.2f},{to_abs(i, p)[1]:.2f}" for p in leg)
            body.append(f'<polyline points="{pts}" fill="none" stroke="#b03030" stroke-width="1.5"/>')
        cx, cy = to_abs(i, star.center)
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3.5" fill="#b03030"/>')
        body.append(f'<text x="{ox + cs / 2:.1f}" y="{oy - 8:.1f}" text-anchor="middle" '
                    f'font-size="18">carpet {i + 1}</text>')
    for (i, j) in sorted({tuple(sorted(k)) for k in s.marks}):
        a = to_abs(i, s.marks[(i, j)].point)
        b = to_abs(j, s.marks[(j, i)].point)
        body.append(f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
                    'stroke="#3050b0" stroke-width="1" stroke-dasharray="5,4"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
            f'viewBox="0 0 {size:.0f} {size:.0f}">\n' + "\n".join(body) + "\n</svg>\n")
