import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxbound.carpet import (HOLED_DISK, OUTER, CarpetStar, MarkedPoint,
                             RoutingError, Square, StarEmbedding, _cell_kept,
                             _default_mark_assignment, _entry_cell,
                             _is_peripheral, build_carpet_approx,
                             build_k5_scaffold, carpet_svg, embed_star_in_carpet,
                             excluded_t_values, null_family_check, scaffold_svg,
                             scaffold_to_json, select_t_avoiding,
                             star_family_point, verify_k5_graph,
                             verify_leg_family_disjointness,
                             verify_star_disjointness, verify_star_in_carpet)
from coxbound.geometry import (DISJOINT, OVERLAP, POINT, dist2, lerp,
                               segment_common, segment_in_box)


def test_carpet_counts():
    for k in range(5):
        c = build_carpet_approx(k)
        assert len(c.kept) == 8 ** k
        assert len(c.removed) == (8 ** k - 1) // 7
        assert all(sq.side == F(1, 3 ** k) for sq in c.kept)


def _reference_carpet(level):
    """Kept and removed squares of the middle-ninth carpet, by recursion on
    the level with Fraction arithmetic on every coordinate."""
    if level == 0:
        return [OUTER], []
    kept, removed = _reference_carpet(level - 1)
    nxt = []
    for sq in kept:
        s = sq.side / 3
        for i in range(3):
            for j in range(3):
                sub = Square(sq.x + i * s, sq.y + j * s, s)
                (removed if i == j == 1 else nxt).append(sub)
    return nxt, removed


def test_carpet_matches_reference_order():
    """kept and removed equal the reference subdivision element by element,
    in order (the SVG and JSON emit squares in this order)."""
    for level in range(5):
        c = build_carpet_approx(level)
        kept, removed = _reference_carpet(level)
        assert list(c.kept) == kept
        assert list(c.removed) == removed
        assert all(isinstance(v, F) for sq in c.kept + c.removed
                   for v in (sq.x, sq.y, sq.side))


def test_carpet_self_similarity():
    """Level k+1 kept squares are exactly the 8 scaled translates of level k."""
    c1 = build_carpet_approx(1)
    c2 = build_carpet_approx(2)
    level1_cells = {(sq.x, sq.y) for sq in c1.kept}
    expected = set()
    for ox, oy in level1_cells:
        for ix, iy in level1_cells:
            expected.add((ox + ix / 3, oy + iy / 3))
    assert {(sq.x, sq.y) for sq in c2.kept} == expected


def test_hole_table_matches_removed_squares():
    """`holes` lists the removed squares as integer cells, and `hole_at`
    marks exactly the cells that are not kept, each with the removed square
    whose interior holds the cell's center."""
    for level in range(5):
        c = build_carpet_approx(level)
        n = 3 ** level
        assert [Square(F(x, n), F(y, n), F(s, n)) for x, y, s in c.holes] == list(c.removed)
        for i in range(n):
            for j in range(n):
                k = c.hole_at[i * n + j]
                assert (k == -1) == _cell_kept(i, j, level)
                if k != -1:
                    assert c.removed[k].contains_open((F(2 * i + 1, 2 * n), F(2 * j + 1, 2 * n)))


@lru_cache(maxsize=None)
def _peripheral_squares(level):
    return set(build_carpet_approx(level).removed) | {OUTER}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_peripheral_rule_matches_removed_squares(data):
    """The cell-grid rule that embed_star_in_carpet checks marks with agrees
    with membership in the removed squares plus OUTER: on removed squares,
    kept and off-grid cells of every scale, and squares of the wrong side."""
    level = data.draw(st.integers(0, 5), label="level")
    how = data.draw(st.sampled_from(["removed", "cell", "any"]), label="how")
    if how == "removed" and level:
        sq = data.draw(st.sampled_from(build_carpet_approx(level).removed), label="square")
    elif how == "cell":
        k = data.draw(st.integers(0, level + 1), label="scale")
        n = 3 ** k
        i, j = (data.draw(st.integers(-2, n + 1)) for _ in range(2))
        sq = Square(F(i, n), F(j, n), F(1, n))
    else:
        den = st.sampled_from([1, 2, 3, 9, 27, 81, 243, 729])
        x, y = (F(data.draw(st.integers(-3, 800)), data.draw(den)) for _ in range(2))
        side = data.draw(st.one_of(st.builds(F, st.integers(1, 3), den),
                                   st.sampled_from([0, 1, 2, F(1, 2)])), label="side")
        sq = Square(x, y, side)
    assert _is_peripheral(sq, level) == (sq in _peripheral_squares(level))


def test_embed_rejects_marks_off_peripheral_squares():
    c = build_carpet_approx(2)
    marks = _default_mark_assignment(c, None)
    kept = Square(F(0), F(0), F(1, 9))
    bad = [MarkedPoint(kept, (F(1, 18), F(1, 9)))] + marks[1:]
    with pytest.raises(ValueError, match="is not a peripheral square of this carpet"):
        embed_star_in_carpet(c, bad)
    off = [MarkedPoint(marks[0].square, (F(1, 2), F(1, 2)))] + marks[1:]
    with pytest.raises(ValueError, match="not on the boundary of its square"):
        embed_star_in_carpet(c, off)


def test_null_family_check():
    # removed square diameters: level-k square has diag^2 = 2/9^k
    c = build_carpet_approx(3)
    assert null_family_check(c, F(1, 5)) == 1        # only the central 1/3 square
    assert null_family_check(c, F(1, 2)) == 0
    assert null_family_check(c, F(1, 100)) > 1
    with pytest.raises(ValueError):
        null_family_check(c, F(0))
    # the per-scale count against a scan of the removed squares, with epsilon
    # just below and just above each scale's diameter sqrt(2)/3^k
    # (1.4142^2 < 2 < 1.4143^2), and beyond the scales at both ends
    epsilons = [F(r, 10000) / 3 ** k for k in range(1, 8) for r in (14142, 14143)]
    epsilons += [F(1, 10 ** 6), F(2)]
    for level in range(7):
        c = build_carpet_approx(level)
        for eps in epsilons:
            brute = sum(1 for sq in c.removed if sq.diameter_squared() > eps * eps)
            assert null_family_check(c, eps) == brute, (level, eps)


def test_null_family_stabilizes():
    counts = {null_family_check(build_carpet_approx(k), F(1, 5)) for k in range(2, 7)}
    assert counts == {1}


def test_square_helpers():
    sq = Square(F(1, 3), F(1, 3), F(1, 3))
    assert sq.contains_open((F(1, 2), F(1, 2)))
    assert not sq.contains_open((F(1, 3), F(1, 2)))
    assert sq.on_boundary((F(1, 3), F(1, 2)))
    assert sq.diameter_squared() == F(2, 9)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entry_cell_on_peripheral_boundary(data):
    level = data.draw(st.integers(2, 4), label="level")
    n = 3 ** level
    removed = build_carpet_approx(level).removed
    sq = data.draw(st.sampled_from(removed + (OUTER,)), label="square")
    cells = int(sq.side * n)            # cell edges along one side of sq
    side = data.draw(st.sampled_from(["left", "right", "bottom", "top"]), label="side")
    k = data.draw(st.integers(0, cells - 1), label="cell edge")
    fixed = sq.x if side == "left" else sq.x + sq.side if side == "right" else \
        sq.y if side == "bottom" else sq.y + sq.side

    def on_side(offset):
        along = (sq.y if side in ("left", "right") else sq.x) + F(offset) / n
        return (fixed, along) if side in ("left", "right") else (along, fixed)

    p = on_side(F(2 * k + 1, 2))        # a cell-edge midpoint
    assert sq.on_boundary(p)
    i, j = _entry_cell(p, level)
    assert 0 <= i < n and 0 <= j < n and _cell_kept(i, j, level)
    assert F(i, n) <= p[0] <= F(i + 1, n) and F(j, n) <= p[1] <= F(j + 1, n)
    if sq != OUTER:
        assert not (sq.x <= F(i, n) and F(i + 1, n) <= sq.x + sq.side
                    and sq.y <= F(j, n) and F(j + 1, n) <= sq.y + sq.side)
    corner = on_side(data.draw(st.integers(0, cells), label="cell corner"))
    with pytest.raises(ValueError):
        _entry_cell(corner, level)


# --- erratum star family ----------------------------------------------------------

def test_marked_points_off_center_line():
    # no marked point lies on y = -x, so leg families pinch only at the tips
    for p in HOLED_DISK.marked:
        assert p[0] + p[1] != 0


def test_star_family_point_endpoints():
    t = F(1, 16)
    star = StarEmbedding(t)
    assert star.center == (t, -t)
    for i, p in enumerate(HOLED_DISK.marked, start=1):
        assert star_family_point(t, i, F(0)) == star.center
        assert star_family_point(t, i, F(1)) == p
        assert star.leg(i) == (star.center, p)


def test_leg_families_disjoint_away_from_tips():
    rng = random.Random(5)
    for _ in range(200):
        t = F(rng.randrange(-16, 17), 128)
        t2 = F(rng.randrange(-16, 17), 128)
        if t == t2:
            continue
        for i in (1, 2, 3, 4):
            assert verify_leg_family_disjointness(i, t, t2)


def test_whole_stars_always_cross():
    """Distinct whole stars are NOT pairwise disjoint: legs toward different
    marked points cross.  This is the exact counterexample geometry; see the
    known crossing of legs 1 and 3 at (-1/24, -1/24) for t = 1/16, t2 = -1/16."""
    t, t2 = F(1, 16), F(-1, 16)
    assert not verify_star_disjointness(t, t2)
    a, b = StarEmbedding(t), StarEmbedding(t2)
    kind, p = segment_common(*a.leg(1), *b.leg(3))
    assert kind == POINT and p == (F(-1, 24), F(-1, 24))
    # every distinct pair crosses, not just this one
    rng = random.Random(9)
    distinct, crossings = 0, 0
    for _ in range(50):
        u = F(rng.randrange(-16, 17), 130)
        v = F(rng.randrange(-16, 17), 130)
        if u != v:
            distinct += 1
            if not verify_star_disjointness(u, v):
                crossings += 1
    assert crossings == distinct


def test_excluded_t_values():
    q = (F(-1, 24), F(-1, 24))
    excl = excluded_t_values(q)
    assert len(excl) <= 4
    # a point actually hit by some star excludes the t that hits it
    t = F(1, 16)
    p = star_family_point(t, 1, F(1, 3))
    assert t in excluded_t_values(p)


def test_select_t_avoiding():
    rng = random.Random(2)
    pts = [(F(rng.randrange(-50, 50), 101), F(rng.randrange(-50, 50), 101))
           for _ in range(100)]
    t, cert = select_t_avoiding(pts)
    assert F(-1, 8) <= t <= F(1, 8)
    star = StarEmbedding(t)
    for q in pts:
        for i in (1, 2, 3, 4):
            kind, p = segment_common(*star.leg(i), q, q)
            assert kind != POINT or p != q or q == HOLED_DISK.marked[i - 1]
    # certificate lists, per point, the finitely many t values it would exclude
    assert set(cert) == set(pts)
    assert all(len(excl) <= 4 for excl in cert.values())
    assert all(t not in excl for excl in cert.values())


# --- star routing in the carpet ----------------------------------------------------

def test_embed_and_verify_star():
    from coxbound.carpet import _default_mark_assignment
    c = build_carpet_approx(2)
    marks = _default_mark_assignment(c, None)
    star = embed_star_in_carpet(c, marks)
    assert verify_star_in_carpet(c, star)
    assert len(star.legs) == 4
    for leg, mark in zip(star.legs, marks):
        assert leg[0] == star.center
        assert leg[-1] == mark.point


def test_verifier_rejects_broken_star():
    from coxbound.carpet import _default_mark_assignment
    c = build_carpet_approx(2)
    marks = _default_mark_assignment(c, None)
    star = embed_star_in_carpet(c, marks)
    # route a leg straight through the central removed square
    bad_leg = (star.center, (F(1, 2), F(1, 2)), star.legs[0][-1])
    bad = CarpetStar(star.center, (bad_leg,) + star.legs[1:], star.marks)
    assert not verify_star_in_carpet(c, bad)


def test_k5_scaffold():
    s = build_k5_scaffold(level=2)
    assert verify_k5_graph(s)
    assert s.adjacency() == [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    assert len(s.marks) == 20   # ordered pairs


def test_k5_scaffold_deterministic():
    a = scaffold_to_json(build_k5_scaffold(level=2))
    b = scaffold_to_json(build_k5_scaffold(level=2))
    assert a == b


def test_k5_scaffold_seeded():
    for seed in (1, 2, 3):
        assert verify_k5_graph(build_k5_scaffold(level=2, seed=seed))


def test_k5_level_too_small():
    with pytest.raises(RoutingError):
        build_k5_scaffold(level=1)


def test_svg_outputs():
    c = build_carpet_approx(2)
    svg = carpet_svg(c)
    assert svg.count("<rect") >= len(c.removed)
    s = build_k5_scaffold(level=2)
    doc = scaffold_svg(s)
    assert "<svg" in doc and "</svg>" in doc
    assert doc == scaffold_svg(build_k5_scaffold(level=2))


# --- the prefiltered verifier against a brute-force oracle --------------------------

def _oracle_verify(carpet, star):
    """verify_star_in_carpet's checks without any prefilter: segment_common on
    every pair of leg segments, segment_in_box on every segment against every
    removed square."""
    if len(star.legs) != 4:
        return False
    for leg, mark in zip(star.legs, star.marks):
        if leg[0] != star.center or leg[-1] != mark.point:
            return False
    segs = [list(zip(leg[:-1], leg[1:])) for leg in star.legs]
    for a in range(4):
        for b in range(a + 1, 4):
            for p, q in segs[a]:
                for r, s in segs[b]:
                    kind, pt = segment_common(p, q, r, s)
                    if kind == OVERLAP or (kind != DISJOINT and pt != star.center):
                        return False
    for leg_segs, mark in zip(segs, star.marks):
        for p, q in leg_segs:
            for sq in carpet.removed:
                hit = segment_in_box(p, q, sq.x, sq.y, sq.x + sq.side, sq.y + sq.side)
                if hit is None:
                    continue
                if hit[0] != hit[1]:
                    return False
                if not (sq == mark.square and lerp(p, q, hit[0]) == mark.point):
                    return False
            for pt in (p, q):
                if not (0 <= pt[0] <= 1 and 0 <= pt[1] <= 1):
                    return False
                if (pt[0] in (0, 1) or pt[1] in (0, 1)) and not (
                        mark.square == OUTER and pt == mark.point):
                    return False
    return True


@lru_cache(maxsize=None)
def _routed_stars():
    """(carpet, star) pairs from K5 scaffolds at level 2 (several seeds) and 3."""
    pairs = []
    for level, seed in ((2, None), (2, 1), (2, 2), (2, 5), (2, 7), (3, None)):
        s = build_k5_scaffold(level=level, seed=seed)
        pairs.extend(zip(s.carpets, s.stars))
    return tuple(pairs)


def _with_leg(star, k, leg):
    return CarpetStar(star.center, star.legs[:k] + (leg,) + star.legs[k + 1:], star.marks)


def _check_rejected(carpet, bad):
    assert not _oracle_verify(carpet, bad)
    assert not verify_star_in_carpet(carpet, bad)


def test_verifier_agrees_with_oracle_on_routed_stars():
    for carpet, star in _routed_stars():
        assert _oracle_verify(carpet, star)
        assert verify_star_in_carpet(carpet, star)


_PERTURB = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@_PERTURB
@given(st.data())
def test_verifier_rejects_vertex_in_removed_square(data):
    pairs = _routed_stars()
    carpet, star = pairs[data.draw(st.integers(0, len(pairs) - 1), label="star")]
    k = data.draw(st.integers(0, 3), label="leg")
    leg = star.legs[k]
    v = data.draw(st.integers(1, len(leg) - 2), label="vertex")
    sq = carpet.removed[data.draw(st.integers(0, len(carpet.removed) - 1), label="square")]
    inside = (sq.x + sq.side / 2, sq.y + sq.side / 2)
    assert sq.contains_open(inside)
    _check_rejected(carpet, _with_leg(star, k, leg[:v] + (inside,) + leg[v + 1:]))


@_PERTURB
@given(st.data())
def test_verifier_rejects_vertex_on_other_leg(data):
    pairs = _routed_stars()
    carpet, star = pairs[data.draw(st.integers(0, len(pairs) - 1), label="star")]
    k = data.draw(st.integers(0, 3), label="leg")
    other = (k + data.draw(st.integers(1, 3), label="other leg")) % 4
    leg, target = star.legs[k], star.legs[other]
    v = data.draw(st.integers(1, len(leg) - 2), label="vertex")
    # the nearest vertex or segment midpoint of the other leg, so that the
    # moved vertex mostly stays clear of removed squares
    on_other = min((p for j in range(len(target) - 1)
                    for p in (target[j + 1], lerp(target[j], target[j + 1], F(1, 2)))),
                   key=lambda p: (dist2(p, leg[v]), p))
    assert on_other != star.center
    _check_rejected(carpet, _with_leg(star, k, leg[:v] + (on_other,) + leg[v + 1:]))


@_PERTURB
@given(st.data())
def test_verifier_rejects_other_boundary_point_of_marked_square(data):
    pairs = _routed_stars()
    carpet, star = pairs[data.draw(st.integers(0, len(pairs) - 1), label="star")]
    k = data.draw(st.integers(0, 3), label="leg")
    leg, mark = star.legs[k], star.marks[k]
    sq = mark.square
    boundary = [p for p in sq.corners() + tuple(
        sq.edge_midpoint(d) for d in ("left", "right", "bottom", "top"))
        if p != mark.point]
    q = data.draw(st.sampled_from(boundary), label="boundary point")
    assert sq.on_boundary(q)
    # the last segment ends at q instead of the mark ...
    _check_rejected(carpet, _with_leg(star, k, leg[:-1] + (q,)))
    # ... or reaches the mark only after touching the square at q
    _check_rejected(carpet, _with_leg(star, k, leg[:-1] + (q, mark.point)))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_verifier_agrees_with_oracle_on_moved_vertices(data):
    """Any rational vertex, on the cell grid or off it, inside the unit
    square or outside it, and near where it was or anywhere, gets the
    oracle's verdict."""
    pairs = _routed_stars()
    carpet, star = pairs[data.draw(st.integers(0, len(pairs) - 1), label="star")]
    k = data.draw(st.integers(0, 3), label="leg")
    leg = star.legs[k]
    v = data.draw(st.integers(1, len(leg) - 2), label="vertex")
    den = data.draw(st.sampled_from([2 * 3 ** carpet.level, 4 * 3 ** carpet.level, 1, 2, 7]),
                    label="denominator")
    if data.draw(st.booleans(), label="anywhere"):
        x, y = (F(data.draw(st.integers(-den // 8 - 1, den + den // 8 + 1)), den)
                for _ in range(2))
    else:
        x, y = (c + F(data.draw(st.integers(-3, 3)), den) for c in leg[v])
    moved = _with_leg(star, k, leg[:v] + ((x, y),) + leg[v + 1:])
    assert verify_star_in_carpet(carpet, moved) == _oracle_verify(carpet, moved)
