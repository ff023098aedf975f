import json
import math
import re
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxbound import davis
from coxbound.davis import (build_davis_ball, ball_to_json,
                            euler_characteristic, link_matches_nerve,
                            tessellation_svg, tessellation_triangles,
                            vertex_link)
from coxbound.nerve import build_nerve
from coxbound.system import (EUCLIDEAN, HYPERBOLIC, INF, SPHERICAL, complete_graph_system,
                             cosine_matrix, make_system, triangle_type)
from coxbound.words import cayley_ball, word_context


def triangle(a, b, c):
    return make_system("xyz", {("x", "y"): a, ("y", "z"): b, ("x", "z"): c})


def test_dihedral_ball_is_one_polygon():
    sysm = make_system("ab", {("a", "b"): 3})
    ball = build_davis_ball(sysm, 3)
    assert len(ball.vertices) == 6
    assert len(ball.edges) == 6
    assert len(ball.faces) == 1
    s, t, cycle = ball.faces[0]
    assert (s, t) == ("a", "b") and len(cycle) == 6
    assert euler_characteristic(ball) == 1   # a disk


def test_face_cycles_close():
    sysm = complete_graph_system(3)
    ball = build_davis_ball(sysm, 4)
    edge_set = {frozenset((a, b)) for a, b, _ in ball.edges}
    for s, t, cycle in ball.faces:
        m = int(sysm.m(s, t))
        assert len(cycle) == 2 * m
        assert len(set(cycle)) == 2 * m
        for i in range(2 * m):
            assert frozenset((cycle[i], cycle[(i + 1) % (2 * m)])) in edge_set


def test_interior_link_matches_nerve():
    sysm = complete_graph_system(3)
    nerve = build_nerve(sysm)
    ball = build_davis_ball(sysm, 5)
    link = vertex_link(ball, ())
    assert link_matches_nerve(link, nerve)
    # the identity sits in one hexagon per generator pair
    assert len(link.edges) == 3


def test_link_mismatches_rejected():
    """A link with a direction missing, a corner missing, or one corner's
    angle wrong does not match the nerve."""
    sysm = complete_graph_system(3)
    nerve = build_nerve(sysm)
    link = vertex_link(build_davis_ball(sysm, 5), ())
    first, *rest = link.edges
    assert not link_matches_nerve(link._replace(vertices=link.vertices[1:]), nerve)
    assert not link_matches_nerve(link._replace(edges=tuple(rest)), nerve)
    wrong = {**link.angles, first: link.angles[first] / 2}
    assert not link_matches_nerve(link._replace(angles=wrong), nerve)
    assert link_matches_nerve(link._replace(angles=dict(link.angles)), nerve)


def test_link_rejects_frontier_vertex():
    sysm = complete_graph_system(3)
    ball = build_davis_ball(sysm, 4)
    deep = max(ball.vertices, key=len)
    with pytest.raises(ValueError):
        vertex_link(ball, deep)


def test_ball_requires_1d_nerve():
    sysm = triangle(2, 3, 3)   # spherical: nerve is a 2-simplex
    with pytest.raises(ValueError):
        build_davis_ball(sysm, 2)


def test_ball_json_deterministic():
    sysm = complete_graph_system(3)
    assert ball_to_json(build_davis_ball(sysm, 3)) == ball_to_json(build_davis_ball(sysm, 3))


# --- the JSON writer against the general encoder ----------------------------------

def _dumps_ball(ball):
    """The ball's document as `json.dumps(..., indent=2)` writes it: the bytes
    `ball_to_json` must reproduce."""
    return json.dumps({
        "radius": ball.radius,
        "vertices": [" ".join(v) for v in ball.vertices],
        "edges": [[" ".join(a), " ".join(b), s] for a, b, s in ball.edges],
        "faces": [{"pair": [s, t], "cycle": [" ".join(v) for v in cyc]}
                  for s, t, cyc in ball.faces],
        "euler_characteristic": euler_characteristic(ball),
    }, indent=2)


ESCAPED_NAMES = ['"q"', "back\\slash", "tab\t", "\u00e9", "\u2603", "\U0001d54a"]


@st.composite
def named_balls(draw):
    """Davis balls of rank 2-4 and radius 1-5 whose generator names JSON may
    have to escape: quotes, backslashes, control and non-ASCII characters."""
    rank = draw(st.integers(2, 4), label="rank")
    names = draw(st.lists(st.sampled_from(ESCAPED_NAMES) | st.text(min_size=1, max_size=3),
                          min_size=rank, max_size=rank, unique=True), label="names")
    sysm = make_system(names, {pair: draw(st.sampled_from([2, 3, 4, 5, 6, 7, INF]))
                               for pair in combinations(names, 2)})
    assume(all(kind != SPHERICAL for *_, kind in sysm.non_hyperbolic_triples))
    return build_davis_ball(sysm, draw(st.integers(1, 5), label="radius"))


@settings(max_examples=80, deadline=None)
@given(named_balls())
@example(build_davis_ball(make_system(ESCAPED_NAMES[:2], {tuple(ESCAPED_NAMES[:2]): 5}), 5))
@example(build_davis_ball(make_system(ESCAPED_NAMES[3:], {}), 2))     # no faces
def test_ball_json_matches_json_dumps(ball):
    assert ball_to_json(ball) == _dumps_ball(ball)
    bare = ball._replace(edges=(), faces=())
    assert ball_to_json(bare) == _dumps_ball(bare)


# --- the faces against their multiply-based oracle ---------------------------------
#
# The faces as they were found before they were read off the ball's up-edges:
# every vertex re-encoded, the shortest element of each coset found by
# multiplying by s and t, and both sides of its cycle multiplied out.

def _multiplied_faces(sysm, radius):
    ctx = word_context(sysm)
    faces = []
    for g in map(ctx.encode, cayley_ball(sysm, radius).vertices):
        for s, t in sysm.pairs():
            m = sysm.m(s, t)
            if m == INF or len(g) + m > radius:
                continue
            si, ti = sysm.index(s), sysm.index(t)
            gs, gt = ctx.multiply(g, si), ctx.multiply(g, ti)
            if len(gs) < len(g) or len(gt) < len(g):
                continue
            up_s, up_t = [g, gs], [g, gt]
            for k in range(1, int(m)):
                up_s.append(ctx.multiply(up_s[-1], ti if k % 2 else si))
            for k in range(1, int(m) - 1):
                up_t.append(ctx.multiply(up_t[-1], si if k % 2 else ti))
            names = [ctx.decode(v) for v in up_s + up_t[:0:-1]]
            k = names.index(min(names))
            faces.append((s, t, tuple(names[k:] + names[:k])))
    return tuple(sorted(faces))


@st.composite
def one_dimensional_nerves(draw):
    """Rank 2-5, labels from 2-7 or infinity, no spherical triple."""
    gens = [f"g{i}" for i in range(draw(st.integers(2, 5)))]
    sysm = make_system(gens, {pair: draw(st.sampled_from([2, 3, 4, 5, 6, 7, INF]))
                              for pair in combinations(gens, 2)})
    assume(all(kind != SPHERICAL for *_, kind in sysm.non_hyperbolic_triples))
    return sysm


@settings(max_examples=150, deadline=None)
@given(one_dimensional_nerves(), st.integers(1, 6))
@example(make_system("ab", {("a", "b"): 5}), 4)        # I2(5) one short of its face
@example(make_system("ab", {("a", "b"): 5}), 5)        # and the whole group
@example(make_system("abc", {("a", "b"): 3, ("b", "c"): 4}), 6)     # m(a, c) = inf
def test_faces_match_multiplied_oracle(sysm, radius):
    assert build_davis_ball(sysm, radius).faces == _multiplied_faces(sysm, radius)


# --- tessellations --------------------------------------------------------------

def test_tessellation_kinds():
    tris, kind = tessellation_triangles(triangle(2, 3, 5), 4)
    assert kind == "spherical"
    tris, kind = tessellation_triangles(triangle(3, 3, 3), 4)
    assert kind == "euclidean"
    tris, kind = tessellation_triangles(triangle(2, 3, 7), 4)
    assert kind == "hyperbolic"


def test_euclidean_tessellation_grows():
    t3, _ = tessellation_triangles(triangle(3, 3, 3), 3)
    t5, _ = tessellation_triangles(triangle(3, 3, 3), 5)
    assert len(t5) > len(t3) > 1


def test_hyperbolic_triangles_inside_disk():
    tris, kind = tessellation_triangles(triangle(2, 3, 7), 5)
    assert kind == "hyperbolic"
    shallow, _ = tessellation_triangles(triangle(2, 3, 7), 3)
    assert len(tris) > len(shallow) >= 5
    for tri in tris:
        for x, y in tri:
            assert x * x + y * y < 1.0 + 1e-9


def test_tessellation_svg_deterministic():
    svg1 = tessellation_svg(triangle(2, 4, 5), 4)
    svg2 = tessellation_svg(triangle(2, 4, 5), 4)
    assert svg1 == svg2
    assert svg1.startswith("<svg") or "<svg" in svg1
    assert "</svg>" in svg1


def test_tessellation_requires_rank_3():
    with pytest.raises(ValueError):
        tessellation_svg(complete_graph_system(4), 3)


# --- the orbit against its float-key oracle ----------------------------------------
#
# The orbit as it ran before it keyed each triangle by its group element: a
# triangle was new when its coordinates, rounded to 9 digits, were.  Every
# image was computed and rounded, and in deep hyperbolic tessellations one
# chamber reached along two paths could round to two keys and be drawn twice.

def _float_key_orbit(tri0, images, depth):
    tris = [tri0]
    seen = {_tri_key(tri0)}
    frontier = [tri0]
    for _ in range(depth):
        nxt = []
        for tri in frontier:
            for img in images(tri):
                key = _tri_key(img)
                if key not in seen:
                    seen.add(key)
                    nxt.append(img)
        tris += nxt
        frontier = nxt
    return tris


def _tri_key(tri):
    return tuple(sorted(tuple(round(float(x), 9) for x in row) for row in tri))


def _oracle_svg(sysm, depth):
    """tessellation_svg with the orbit walked by the float-key oracle."""
    def orbit(_sys, tri0, moves, depth):
        return _float_key_orbit(tri0, lambda tri: [image(tri) for _, image in moves], depth)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(davis, "_orbit", orbit)
        return tessellation_svg(sysm, depth)


def _polygons(svg):
    return re.findall(r'<polygon points="([^"]*)"', svg)


@st.composite
def triangle_systems(draw):
    """Triangle groups with labels 2-8 and their generators in random order."""
    labels = {pair: draw(st.integers(2, 8)) for pair in (("a", "b"), ("b", "c"), ("a", "c"))}
    return make_system(draw(st.permutations("abc")), labels)


# random labels are seldom Euclidean, whose orbit unfolds by edge reflections
EUCLIDEAN_236 = make_system("abc", {("a", "b"): 2, ("b", "c"): 3, ("a", "c"): 6})


@settings(max_examples=40, deadline=None)
@given(triangle_systems(), st.integers(0, 9))
@example(make_system("cab", {("a", "b"): 3, ("b", "c"): 7, ("a", "c"): 8}), 9)
@example(EUCLIDEAN_236, 6)
def test_tessellation_matches_float_key_oracle(sysm, depth):
    svg, oracle = tessellation_svg(sysm, depth), _oracle_svg(sysm, depth)
    drawn = _polygons(oracle)
    if len(drawn) == cayley_ball(sysm, depth).size:
        assert svg == oracle
    else:
        # the oracle drew a hyperbolic chamber twice (the example above: 906
        # polygons for 903 chambers); the orbit draws the oracle's polygons in
        # its order, each once
        assert triangle_type(sysm, sysm.generators) == HYPERBOLIC
        assert _polygons(svg) == list(dict.fromkeys(drawn))


def _orbit_triangles(sysm, depth):
    """The triangles of the orbit before projection, where distinct chambers
    have distinct vertex sets (the orthographic drawing of a spherical
    tessellation overlays its two hemispheres)."""
    walked, walk = [], davis._orbit

    def orbit(*args):
        walked.append(walk(*args))
        return walked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(davis, "_orbit", orbit)
        tessellation_triangles(sysm, depth)
    return walked[0]


def _assert_one_triangle_per_group_element(sysm, depth):
    tris = _orbit_triangles(sysm, depth)
    assert len(tris) == cayley_ball(sysm, depth).size
    vertex_sets = {tuple(sorted(tuple(round(x, 6) for x in row) for row in tri))
                   for tri in tris}
    assert len(vertex_sets) == len(tris)


@settings(max_examples=40, deadline=None)
@given(triangle_systems(), st.integers(0, 12))
@example(EUCLIDEAN_236, 6)
def test_tessellation_count_is_cayley_ball(sysm, depth):
    _assert_one_triangle_per_group_element(sysm, depth)


# (m_ab, m_ac, m_bc), depth and triangle count where the float-key oracle drew
# duplicates: 1,461, 4,631, 11,478 and 2,739 triangles
@pytest.mark.parametrize("labels,depth,count", [
    ((3, 5, 8), 10, 1460), ((3, 5, 8), 12, 4623), ((7, 7, 7), 12, 11470),
    ((5, 7, 8), 10, 2738),
])
def test_deep_hyperbolic_tessellation_counts_pinned(labels, depth, count):
    ab, ac, bc = labels
    sysm = make_system("abc", {("a", "b"): ab, ("a", "c"): ac, ("b", "c"): bc})
    assert len(tessellation_triangles(sysm, depth)[0]) == count
    _assert_one_triangle_per_group_element(sysm, depth)


# --- the chamber and the disk's frame ---------------------------------------------

# labels (m_ab, m_bc, m_ac) and depth of the hyperbolic renders that
# tests/test_output_digests.py pins, each in generator orders abc and cab
HYPERBOLIC_PINS = [(gens, labels, depth) for labels, depth in
                   (((2, 3, 7), 16), ((3, 3, 4), 10), ((4, 5, 6), 8)) for gens in ("abc", "cab")]


def _labelled(gens, labels):
    ab, bc, ac = labels
    return make_system(gens, {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac})


def _klein_distance(p, q):
    """Hyperbolic distance of two points of the Klein disk."""
    cosh = (1 - p[0] * q[0] - p[1] * q[1]) / math.sqrt(
        (1 - p[0] ** 2 - p[1] ** 2) * (1 - q[0] ** 2 - q[1] ** 2))
    return math.acosh(cosh)


@pytest.mark.parametrize("gens,labels,depth", HYPERBOLIC_PINS)
def test_hyperbolic_triangles_have_the_side_lengths_of_their_angles(gens, labels, depth):
    """Vertex i of every drawn triangle, opposite generator i, has the angle
    pi/m_jk of the other two walls, so by the hyperbolic law of cosines the
    side opposite it has cosh a_i = (cos A_i + cos A_j cos A_k) / (sin A_j sin A_k)."""
    sysm = _labelled(gens, labels)
    rows = sysm.label_rows
    turns = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    angle = {i: math.pi / rows[j][k] for i, j, k in turns}
    side = {i: math.acosh((math.cos(angle[i]) + math.cos(angle[j]) * math.cos(angle[k]))
                          / (math.sin(angle[j]) * math.sin(angle[k]))) for i, j, k in turns}
    tris, kind = tessellation_triangles(sysm, depth)
    assert kind == "hyperbolic" and len(tris) == cayley_ball(sysm, depth).size
    for tri in tris:
        for i, j, k in turns:
            assert _klein_distance(tri[j], tri[k]) == pytest.approx(side[i], rel=1e-6)


@pytest.mark.parametrize("gens,labels,depth", HYPERBOLIC_PINS)
def test_disk_is_framed_by_the_base_chamber(gens, labels, depth):
    """The base chamber's vertex on the walls of generators 0 and 1 (opposite
    generator 2) is the disk's centre, and the wall of generator 0, through
    the vertices opposite generators 1 and 2, is the y-axis."""
    (v0, v1, v2), = tessellation_triangles(_labelled(gens, labels), 0)[0]
    assert abs(v2[0]) < 1e-12 and abs(v2[1]) < 1e-12
    assert abs(v1[0]) < 1e-12


def _assert_base_chamber_is_fundamental(sysm):
    """Each base-chamber vertex v_i lies on the walls of the other two
    generators, on the positive side B(v_i, e_i) > 0 of its own, and has
    |B(v_i, v_i)| = 1, with the sign of the geometry."""
    B = cosine_matrix(sysm)
    sign = 1 if triangle_type(sysm, sysm.generators) == SPHERICAL else -1
    tri0 = _orbit_triangles(sysm, 0)[0]
    for i, v in enumerate(tri0):
        form = [sum(B[j][k] * v[k] for k in range(3)) for j in range(3)]
        assert form[i] > 0
        assert all(abs(form[j]) < 1e-12 for j in range(3) if j != i)
        assert sum(form[j] * v[j] for j in range(3)) == pytest.approx(sign, abs=1e-12)


@pytest.mark.parametrize("labels", [(2, 2, 2), (2, 2, 7), (2, 3, 3), (2, 3, 4), (2, 3, 5),
                                    (2, 3, 7), (3, 3, 4), (4, 5, 6), (7, 7, 7)])
@pytest.mark.parametrize("gens", ["abc", "bca", "cab"])
def test_base_chamber_is_the_fundamental_chamber(gens, labels):
    """Spherical and hyperbolic, reducible A1 x I2(m) in all three generator
    orders included, which an arbitrary sign per vertex drew as an image of
    the fundamental chamber."""
    _assert_base_chamber_is_fundamental(_labelled(gens, labels))


@settings(max_examples=40, deadline=None)
@given(triangle_systems())
def test_base_chamber_is_fundamental_for_any_labels(sysm):
    assume(triangle_type(sysm, sysm.generators) != EUCLIDEAN)
    _assert_base_chamber_is_fundamental(sysm)
