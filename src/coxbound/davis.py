"""Finite balls of the Davis-Moussong 2-complex and triangle tessellations.

Valid for 1-dimensional nerves only: the complex is then 2-dimensional, with
one regular 2m_st-gon per coset of each finite dihedral pair <s,t>.  A face
is attached only when its full vertex cycle lies inside the ball, so the
frontier never carries partial polygons.  The faces are read off the Cayley
ball's own up-edges, so the ball's products are computed once.

The triangle tessellations are computed in plain floats from closed forms of
the cosine matrix: chamber vertices are cross products of its rows, and the
hyperbolic disk's frame is its fixed-order LDL^T, so the drawing is fixed by
the labels and their generator order alone.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .classify import _array, serre_fa_criterion
from .nerve import NerveComplex, edge_length_fraction
from .system import (SPHERICAL, CoxeterSystem, cosine_matrix, geometric_representation,
                     triangle_type)
from .words import cayley_ball, word_context

Vertex = tuple[str, ...]     # ShortLex normal form


class DavisBall(NamedTuple):
    system: CoxeterSystem
    radius: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex, str], ...]
    # one face per fully-contained <s,t>-coset: (s, t, boundary cycle of 2m vertices)
    faces: tuple[tuple[str, str, tuple[Vertex, ...]], ...]


class LinkGraph(NamedTuple):
    vertices: tuple[str, ...]                       # generator directions
    edges: tuple[tuple[str, str], ...]              # polygon corners at the vertex
    angles: dict[tuple[str, str], Fraction]         # corner angle / pi


def build_davis_ball(sys: CoxeterSystem, radius: int) -> DavisBall:
    """Combinatorial ball: Cayley 1-skeleton plus all fully-contained polygons,
    each read off the up-edges (g, gs, s) that `cayley_ball` records."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    # the nerve has a 2-simplex iff some triple is spherical
    if any(kind == SPHERICAL for *_, kind in sys.non_hyperbolic_triples):
        raise ValueError("Davis ball requires a nerve of dimension <= 1 (2-complex regime)")
    ball = cayley_ball(sys, radius)
    up = {(g, s): gs for g, gs, s in ball.edges}
    gens = sys.generators
    pairs = [(gens[i], gens[j], m) for i, j, m in sys._finite_pairs]

    # Each <s,t>-coset has one shortest element g, the only member with both
    # gs and gt longer; the coset's members then have lengths |g| .. |g| + m,
    # so it lies in the ball exactly when |g| + m <= radius.  A reduced word
    # w in s, t has |gw| = |g| + |w|, so both sides of the cycle climb by
    # up-edges, all starting below the radius: g, gs, gst, ... to the longest
    # member, and g, gt, gts, ... one step short of it.
    faces = []
    for g in ball.vertices:
        for s, t, m in pairs:
            if len(g) + m <= radius and (g, s) in up and (g, t) in up:
                side_s, side_t = [g], [g]
                for k in range(m):
                    side_s.append(up[side_s[-1], t if k % 2 else s])
                for k in range(m - 1):
                    side_t.append(up[side_t[-1], s if k % 2 else t])
                # going on from the longest member, the cycle runs back down the t side
                names = side_s + side_t[:0:-1]
                # canonical orientation: start at the least member in name order
                k = names.index(min(names))
                faces.append((s, t, tuple(names[k:] + names[:k])))
    faces.sort()
    return DavisBall(sys, radius, ball.vertices, ball.edges, tuple(faces))


def euler_characteristic(ball: DavisBall) -> int:
    return len(ball.vertices) - len(ball.edges) + len(ball.faces)


def vertex_link(ball: DavisBall, v: Vertex) -> LinkGraph:
    """Link graph at an interior vertex: one node per generator direction, one
    edge per polygon corner, carrying the angle (1 - 1/m_st) * pi."""
    sys = ball.system
    gens = sys.generators
    labels = {(gens[i], gens[j]): m for i, j, m in sys._finite_pairs}
    max_m = max(labels.values(), default=2)
    depth = len(v)
    if depth > ball.radius - max_m:
        raise ValueError(
            f"vertex at distance {depth} is too close to the frontier "
            f"(interior requires distance <= radius - max m_st = {ball.radius - max_m})")
    corners = set()
    for s, t, cycle in ball.faces:
        if v in cycle:
            corners.add((s, t))
    directions = tuple(sys.generators)
    angles = {e: edge_length_fraction(labels[e]) for e in corners}
    return LinkGraph(directions, tuple(sorted(corners)), angles)


def link_matches_nerve(link: LinkGraph, nerve: NerveComplex) -> bool:
    """Labeled isomorphism check; directions are canonical so identity suffices."""
    if set(link.vertices) != set(nerve.vertices):
        return False
    nerve_edges = {tuple(e) for e in nerve.edges()}
    if set(link.edges) != nerve_edges:
        return False
    return all(link.angles[e] == nerve.edge_lengths[e] for e in link.edges)


def ball_to_json(ball: DavisBall) -> str:
    """The ball as `json.dumps(..., indent=2)` writes {"radius", "vertices",
    "edges", "faces", "euler_characteristic"}: each vertex as its generator
    names joined by spaces, each edge as [g, gs, s] and each face as {"pair":
    [s, t], "cycle": [its vertices]}.  Written directly for the fixed schema,
    as `report_to_json` is: each generator name is escaped once, and a
    vertex's string is its escaped names joined by spaces, since JSON escapes
    a string character by character and leaves the space as it is."""
    escaped = {g: json.dumps(g)[1:-1] for g in ball.system.generators}
    quoted = {v: '"' + " ".join([escaped[g] for g in v]) + '"' for v in ball.vertices}
    names = {g: f'"{e}"' for g, e in escaped.items()}
    edges = [_EDGE.format(quoted[a], quoted[b], names[s]) for a, b, s in ball.edges]
    faces = [_FACE.format(names[s], names[t], _array([quoted[v] for v in cycle], 3))
             for s, t, cycle in ball.faces]
    return "\n".join((
        "{",
        f'  "radius": {json.dumps(ball.radius)},',
        f'  "vertices": {_array([quoted[v] for v in ball.vertices], 1)},',
        f'  "edges": {_array(edges, 1)},',
        f'  "faces": {_array(faces, 1)},',
        f'  "euler_characteristic": {json.dumps(euler_characteristic(ball))}',
        "}",
    ))


# one entry of "edges" and of "faces", laid out as `_array` lays out depth 2
_EDGE = "[\n      {},\n      {},\n      {}\n    ]"
_FACE = '{{\n      "pair": [\n        {},\n        {}\n      ],\n      "cycle": {}\n    }}'


# --- triangle-group tessellations ---------------------------------------------

def tessellation_svg(sys: CoxeterSystem, depth: int) -> str:
    """Render the reflection tessellation of a triangle group to SVG.

    Euclidean groups unfold in the plane, hyperbolic ones render in the Klein
    disk through the geometric representation, and spherical groups render
    their finite orbit (orthographic projection).  Output bytes are
    deterministic for fixed input.
    """
    tris, kind = tessellation_triangles(sys, depth)
    return _svg_document(tris, kind)


def tessellation_triangles(sys: CoxeterSystem, depth: int):
    """Planar triangle orbit backing tessellation_svg: (triangles, kind), each
    triangle a list of three (x, y) float pairs."""
    if sys.rank != 3:
        raise ValueError("tessellation requires exactly 3 generators")
    if not serre_fa_criterion(sys):
        raise ValueError("tessellation requires a complete K_3 nerve (all m_st finite)")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    kind = triangle_type(sys, sys.generators).lower()
    if kind == "euclidean":
        # affine case: the Tits chamber degenerates (vertices hit the form's
        # kernel), so build the Euclidean triangle directly and unfold it by
        # edge reflections.  Angle at the wall-pair vertex {s,t} is pi/m_st.
        (_, _, m_ab), (_, _, m_ac), _ = sys._finite_pairs
        alpha = math.pi / m_ab
        beta = math.pi / m_ac
        # vertices: P_ab at origin, P_ac at (1,0), P_bc above
        x = math.tan(beta) / (math.tan(alpha) + math.tan(beta))
        tri0 = [(0.0, 0.0), (1.0, 0.0), (x, x * math.tan(alpha))]
        # edges (0,1), (1,2), (2,0) lie on the walls of generators 0, 2, 1,
        # and reflecting g(tri0) in its wall of s gives gs(tri0)
        moves = [(s, lambda tri, i=i, j=j: _reflect_across(tri, tri[i], tri[j]))
                 for i, j, s in ((0, 1, 0), (1, 2, 2), (2, 0, 1))]
        return _orbit(sys, tri0, moves, depth), kind

    # Tits chamber: the vertex opposite generator i is B-orthogonal to e_j and
    # e_k, j < k the other two, so it is the cross product of rows j and k of
    # B.  The sign that makes B(v, e_i) > 0 puts it in the closed fundamental
    # chamber, and it is scaled to |B(v, v)| = 1, where B(v, v) = v_i B(v, e_i)
    # since B(v, e_j) = B(v, e_k) = 0.  B(v, v) is never 0: all labels are
    # finite, so B is positive definite on span(e_j, e_k) (its determinant is
    # sin^2(pi/m_jk)).  A spherical B is positive definite, so B(v, v) > 0;
    # a hyperbolic B has signature (2, 1), so the line B-orthogonal to that
    # plane is negative, B(v, v) < 0.
    B = cosine_matrix(sys)
    tri0 = []
    for i in range(3):
        (a0, a1, a2), (b0, b1, b2) = (B[j] for j in range(3) if j != i)
        v = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        side = B[i][0] * v[0] + B[i][1] * v[1] + B[i][2] * v[2]
        norm = math.copysign(math.sqrt(abs(v[i] * side)), side)
        tri0.append(tuple(c / norm for c in v))
    # rho(s) takes the chamber of g to that of sg; keyed by g^-1, that is the
    # right multiply g^-1 s, as in the Euclidean case.  rho(s) changes only
    # coordinate s, to row s of rho(s) dotted with the vertex.
    moves = [(s, _reflection(rho[s], s)) for s, rho in enumerate(geometric_representation(sys))]
    tris = _orbit(sys, tri0, moves, depth)
    if kind == "spherical":
        return [[(x, y) for x, y, _ in tri] for tri in tris], kind     # orthographic

    # Klein disk: Gram-Schmidt of e_0, e_1, e_2 in the form B is B's LDL^T
    # with L unit lower triangular, D = diag(1, d1, d2), and a point's
    # coordinates in that B-orthogonal basis are c = L^T v, so that
    # B(v, v) = c_0^2 + d1 c_1^2 + d2 c_2^2 with d1 > 0 > d2.  The disk point
    # is (c_0, sqrt(d1) c_1) / (sqrt(-d2) c_2): the base chamber's vertex on
    # the walls of generators 0 and 1 (c_0 = c_1 = 0) is the centre, and the
    # wall of generator 0 (c_0 = B(e_0, v) = 0) is the y-axis.  A chamber
    # vertex has B(v, v) < 0, so c_2 is never 0, and the projection is the
    # same for v and -v.
    (_, b01, b02), (_, _, b12), _ = B
    d1 = 1.0 - b01 * b01
    l21 = (b12 - b01 * b02) / d1
    d2 = 1.0 - b02 * b02 - d1 * l21 * l21
    r1, r2 = math.sqrt(d1), math.sqrt(-d2)

    def klein(x, y, z):
        w = r2 * z
        return (x + b01 * y + b02 * z) / w, r1 * (y + l21 * z) / w

    return [[klein(*v) for v in tri] for tri in tris], kind


def _reflection(row, s: int):
    """The move of generator s on a triangle of 3-vectors: coordinate s of
    each vertex becomes `row` dotted with it, in index order."""
    a, b, c = row
    if s == 0:
        return lambda tri: [(a * x + b * y + c * z, y, z) for x, y, z in tri]
    if s == 1:
        return lambda tri: [(x, a * x + b * y + c * z, z) for x, y, z in tri]
    return lambda tri: [(x, y, a * x + b * y + c * z) for x, y, z in tri]


def _orbit(sys: CoxeterSystem, tri0, moves, depth: int) -> list:
    """tri0 and its images under up to `depth` reflections, breadth first, each
    triangle once.  `moves` lists (generator, image function) in image order;
    each triangle is keyed by the ShortLex normal form of its group element,
    and the image function runs only for a key not seen before."""
    ctx = word_context(sys)
    tris = [tri0]
    seen = {()}
    frontier = [((), tri0)]
    for _ in range(depth):
        nxt = []
        for key, tri in frontier:
            for s, image in moves:
                k = ctx.multiply(key, s)
                if k not in seen:
                    seen.add(k)
                    nxt.append((k, image(tri)))
        tris += [tri for _, tri in nxt]
        frontier = nxt
    return tris


def _reflect_across(pts, p, q) -> list[tuple[float, float]]:
    """The points `pts` reflected in the line through p and q."""
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    n = math.sqrt(dx * dx + dy * dy)
    dx, dy = dx / n, dy / n
    out = []
    for x, y in pts:
        rx, ry = x - px, y - py
        proj = rx * dx + ry * dy
        out.append((px + 2.0 * proj * dx - rx, py + 2.0 * proj * dy - ry))
    return out


def _svg_document(triangles, kind: str) -> str:
    xs = [p[0] for tri in triangles for p in tri]
    ys = [p[1] for tri in triangles for p in tri]
    pad = 0.1
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    if kind == "hyperbolic":
        x0, x1, y0, y1 = -1.05, 1.05, -1.05, 1.05
    w = 800.0
    h = w * (y1 - y0) / (x1 - x0)
    sc = w / (x1 - x0)

    def px(p):
        return f"{(p[0] - x0) * sc:.3f},{(h - (p[1] - y0) * sc):.3f}"

    body = []
    if kind == "hyperbolic":
        cx, cy = (0 - x0) * sc, h - (0 - y0) * sc
        body.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{sc:.3f}" '
                    'fill="none" stroke="#888" stroke-width="1"/>')
    for i, tri in enumerate(triangles):
        fill = "#d0e0f8" if i % 2 == 0 else "#f8e8d0"
        pts = " ".join(px(p) for p in tri)
        body.append(f'<polygon points="{pts}" fill="{fill}" stroke="#334" stroke-width="0.7"/>')
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.3f} {h:.3f}">\n' + "\n".join(body) + "\n</svg>\n"
    )
