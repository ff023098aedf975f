import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import coxbound
from coxbound import carpet
from coxbound.carpet import (HOLED_DISK, T_RANGE, CarpetApprox, CarpetStar, K5Scaffold,
                             MarkedPoint, RoutingError, StarEmbedding, _cell_edge_midpoint,
                             _default_mark_assignment, _entry_cell,
                             _is_peripheral_cell, build_carpet_approx,
                             build_k5_scaffold, carpet_svg, embed_star_in_carpet,
                             excluded_t_values, null_family_check, scaffold_svg,
                             scaffold_to_json, select_t_avoiding,
                             star_family_point, verify_k5_graph,
                             verify_leg_family_disjointness,
                             verify_star_disjointness, verify_star_in_carpet)
from coxbound.geometry import (DISJOINT, OVERLAP, POINT, Point, lerp,
                               segment_common, segment_in_box)


def dist2(a: Point, b: Point) -> F:
    """Squared distance, exact."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


@dataclass(frozen=True)
class Square:
    """Axis-aligned square [x, x+side] x [y, y+side] in exact coordinates:
    the `Fraction` model of the carpet that the oracles below are written in."""
    x: F
    y: F
    side: F

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

    def diameter_squared(self) -> F:
        return 2 * self.side * self.side


OUTER = Square(F(0), F(0), F(1))


def _square(cell, level):
    """The integer cell (x, y, side), in units of 3^-level, as a Square."""
    n = 3 ** level
    return Square(*(F(v, n) for v in cell))


def _cell_kept(i, j, level):
    """Whether cell (i, j) of the 3^level grid is kept, from its base-3
    digits alone: no digit position has a 1 in both coordinates.  The
    oracle for `CarpetApprox.hole_at`, which the library reads instead."""
    for _ in range(level):
        if i % 3 == 1 and j % 3 == 1:
            return False
        i //= 3
        j //= 3
    return True


def test_library_has_no_square_model():
    """Integer cells are the carpet's only representation: the package has
    no Square or OUTER, and a carpet no `holes` beside `removed`."""
    for module in (coxbound, carpet):
        assert not hasattr(module, "Square") and not hasattr(module, "OUTER")
    assert not hasattr(CarpetApprox, "holes")


def test_carpet_counts():
    for k in range(5):
        c = build_carpet_approx(k)
        assert len(c.kept) == 8 ** k
        assert len(c.removed) == (8 ** k - 1) // 7
        assert all(side == 1 for _, _, side in c.kept)


@lru_cache(maxsize=None)
def _reference_carpet(level):
    """Kept and removed squares of the middle-ninth carpet, by recursion on
    the level with Fraction arithmetic on every coordinate."""
    if level == 0:
        return (OUTER,), ()
    kept, removed = _reference_carpet(level - 1)
    nxt, removed = [], list(removed)
    for sq in kept:
        s = sq.side / 3
        for i in range(3):
            for j in range(3):
                sub = Square(sq.x + i * s, sq.y + j * s, s)
                (removed if i == j == 1 else nxt).append(sub)
    return tuple(nxt), tuple(removed)


def test_carpet_matches_reference_order():
    """kept and removed, integer cells, equal the reference squares element
    by element: removed in the subdivision's order (the SVG emits squares in
    this order), kept in row-major order, the reference sorted by (x, y)."""
    for level in range(5):
        c = build_carpet_approx(level)
        kept, removed = _reference_carpet(level)
        assert [_square(cell, level) for cell in c.kept] == \
            sorted(kept, key=lambda sq: (sq.x, sq.y))
        assert [_square(cell, level) for cell in c.removed] == list(removed)
        assert all(type(v) is int for cell in c.kept + c.removed for v in cell)


def test_carpet_self_similarity():
    """Level k+1 kept cells are exactly the 8 scaled translates of level k."""
    level1_cells = {(x, y) for x, y, _ in build_carpet_approx(1).kept}
    expected = {(3 * ox + ix, 3 * oy + iy)
                for ox, oy in level1_cells for ix, iy in level1_cells}
    assert {(x, y) for x, y, _ in build_carpet_approx(2).kept} == expected


def test_hole_table_matches_removed_squares():
    """`hole_at` marks exactly the cells that are not kept, each with the
    removed square whose interior holds the cell's center."""
    for level in range(6):
        c = build_carpet_approx(level)
        n = 3 ** level
        for i in range(n):
            for j in range(n):
                k = c.hole_at[i * n + j]
                assert (k == -1) == _cell_kept(i, j, level)
                if k != -1:
                    assert _square(c.removed[k], level).contains_open(
                        (F(2 * i + 1, 2 * n), F(2 * j + 1, 2 * n)))


@lru_cache(maxsize=None)
def _peripheral_squares(level):
    return set(_reference_carpet(level)[1]) | {OUTER}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_peripheral_rule_matches_removed_squares(data):
    """The `hole_at` lookup that embed_star_in_carpet checks mark cells with
    agrees with membership in the reference removed squares plus the unit
    square: on removed cells, on aligned cells of every scale (kept, removed
    and out of range), and on off-grid cells, cells of side 0 and cells of
    the wrong side."""
    level = data.draw(st.integers(0, 5), label="level")
    n = 3 ** level
    how = data.draw(st.sampled_from(["removed", "scale", "any"]), label="how")
    if how == "removed" and level:
        cell = data.draw(st.sampled_from(build_carpet_approx(level).removed), label="cell")
    elif how == "scale":
        side = 3 ** data.draw(st.integers(0, level), label="scale")
        i, j = (data.draw(st.integers(-2, n // side + 1)) for _ in range(2))
        cell = (i * side, j * side, side)
    else:
        x, y = (data.draw(st.integers(-3, n + 3)) for _ in range(2))
        side = data.draw(st.sampled_from([0, 1, 2, 3, 4, 9, 27, n, n + 1, -1]), label="side")
        cell = (x, y, side)
    assert _is_peripheral_cell(build_carpet_approx(level), cell) == (
        _square(cell, level) in _peripheral_squares(level))


def test_embed_rejects_marks_off_peripheral_squares():
    """Each invalid mark is refused with its message."""
    c = build_carpet_approx(2)
    marks = _default_mark_assignment(c, None)
    cases = [
        (marks[:3], ValueError, "exactly 4 marked points required"),
        ([MarkedPoint(marks[1].cell, marks[0].point)] + marks[1:], ValueError,
         "marked points must lie on 4 distinct peripheral boundaries"),
        ([MarkedPoint(marks[0].cell, marks[1].point)] + marks[1:], ValueError,
         "marked points must be distinct"),
        ([MarkedPoint((0, 0, 1), (F(1, 18), F(1, 9)))] + marks[1:], ValueError,
         "cell (0, 0, 1) is not a peripheral square of this carpet"),
        ([MarkedPoint((1, 1, 3), (F(1, 9), F(1, 6)))] + marks[1:], ValueError,
         "cell (1, 1, 3) is not a peripheral square of this carpet"),
        ([MarkedPoint(marks[0].cell, (F(1, 2), F(1, 2)))] + marks[1:], ValueError,
         f"{(F(1, 2), F(1, 2))} not on the boundary of its square"),
        ([MarkedPoint(marks[0].cell, (F(1, 3), F(7, 9)))] + marks[1:], ValueError,
         f"{(F(1, 3), F(7, 9))} not on the boundary of its square"),
        ([MarkedPoint(marks[0].cell, (F(1, 3), F(4, 9)))] + marks[1:], ValueError,
         f"marked point {(F(1, 3), F(4, 9))} sits on a cell corner; move it"),
        # cell (4, 2) lies between the center square and the square (4, 1, 1)
        ([MarkedPoint(marks[0].cell, (F(1, 2), F(1, 3)))] + marks[1:3]
         + [MarkedPoint(marks[3].cell, (F(1, 2), F(2, 9)))], RoutingError,
         "two marked points enter through the same cell"),
        # four entry cells in the left column, cut off by fewer than four
        # cells: some candidate centers find fewer than 4 paths, and none
        # finds 4 (one of the 8 such entry sets among all level-2 mark sets)
        ([MarkedPoint((3, 3, 3), (F(1, 3), F(7, 18))), MarkedPoint((1, 1, 1), (F(1, 6), F(2, 9))),
          MarkedPoint((1, 4, 1), (F(1, 6), F(4, 9))), MarkedPoint((0, 0, 9), (F(0), F(7, 18)))],
         RoutingError, "no 4 disjoint corridors found at level 2"),
    ]
    for bad, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            embed_star_in_carpet(c, bad)
    # the outer boundary is the cell (0, 0, 3^level)
    outer = [MarkedPoint((0, 0, 9), (F(1, 18), F(0)))] + marks[1:]
    assert verify_star_in_carpet(c, embed_star_in_carpet(c, outer))


# the squares every scaffold marks, as the `Fraction` squares they were drawn as
_MARK_SQUARES = [Square(F(1, 3), F(1, 3), F(1, 3)), Square(F(1, 9), F(1, 9), F(1, 9)),
                 Square(F(7, 9), F(7, 9), F(1, 9)), Square(F(4, 9), F(1, 9), F(1, 9))]


def test_mark_cells_and_midpoints_match_fraction_squares():
    """At levels 2-6 the mark cells are the scaffold's `Fraction` squares, and
    `_cell_edge_midpoint` on them gives, in all four directions, the midpoint
    of the first cell edge on that side of the square."""
    for level in range(2, 7):
        h = F(1, 2 * 3 ** level)
        marks = _default_mark_assignment(build_carpet_approx(level), None)
        assert [_square(m.cell, level) for m in marks] == _MARK_SQUARES
        for m in marks:
            sq = _square(m.cell, level)
            for d in ("left", "right", "bottom", "top"):
                x, y = sq.edge_midpoint(d)
                expected = (x, sq.y + h) if d in ("left", "right") else (sq.x + h, y)
                assert _cell_edge_midpoint(m.cell, d, level) == expected


def test_null_family_check():
    # removed square diameters: level-k square has diag^2 = 2/9^k
    c = build_carpet_approx(3)
    assert null_family_check(c, F(1, 5)) == 1        # only the central 1/3 square
    assert null_family_check(c, F(1, 2)) == 0
    assert null_family_check(c, F(1, 100)) > 1
    with pytest.raises(ValueError):
        null_family_check(c, F(0))
    # the per-scale count against a scan of the removed cells, with epsilon
    # just below and just above each scale's diameter sqrt(2)/3^k
    # (1.4142^2 < 2 < 1.4143^2), and beyond the scales at both ends; a cell of
    # side s has diameter^2 2 s^2 / 9^level, which exceeds (p/q)^2 iff
    # 2 s^2 q^2 > p^2 9^level
    epsilons = [F(r, 10000) / 3 ** k for k in range(1, 8) for r in (14142, 14143)]
    epsilons += [F(1, 10 ** 6), F(2)]
    for level in range(7):
        c = build_carpet_approx(level)
        for eps in epsilons:
            q2, bound = eps.denominator ** 2, eps.numerator ** 2 * 9 ** level
            brute = sum(1 for _, _, side in c.removed if 2 * side * side * q2 > bound)
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
    sq = data.draw(st.sampled_from(_reference_carpet(level)[1] + (OUTER,)), label="square")
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
    c = build_carpet_approx(level)
    i, j = _entry_cell(p, c)
    assert 0 <= i < n and 0 <= j < n and _cell_kept(i, j, level)
    assert F(i, n) <= p[0] <= F(i + 1, n) and F(j, n) <= p[1] <= F(j + 1, n)
    if sq != OUTER:
        assert not (sq.x <= F(i, n) and F(i + 1, n) <= sq.x + sq.side
                    and sq.y <= F(j, n) and F(j + 1, n) <= sq.y + sq.side)
    corner = on_side(data.draw(st.integers(0, cells), label="cell corner"))
    with pytest.raises(ValueError):
        _entry_cell(corner, c)


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
    for args, message in (((F(1, 4), 1, F(0)), "t = 1/4 outside [-1/8, 1/8]"),
                          ((t, 5, F(0)), "leg index must be in 1..4"),
                          ((t, 1, F(2)), "s must be in [0, 1]")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            star_family_point(*args)


def _nearest_on_segment(o, a, b):
    """The point of segment ab nearest to o: the projection of o onto the
    line, clamped to the segment, all in exact rationals."""
    v = (b[0] - a[0], b[1] - a[1])
    s = ((o[0] - a[0]) * v[0] + (o[1] - a[1]) * v[1]) / (v[0] ** 2 + v[1] ** 2)
    return lerp(a, b, min(max(s, F(0)), F(1)))


@settings(max_examples=200, deadline=None)
@given(st.fractions(*T_RANGE))
@example(T_RANGE[0])
@example(F(0))
@example(T_RANGE[1])
def test_star_family_lies_in_holed_disk(t):
    """Each leg of the star at t meets the closed hole disks only at its own
    tip, which lies on its hole's circle, and stays in the closed unit disk,
    touching the circle only at p4.  The squared distance to a point is
    strictly convex along a segment, so its minimum over a leg is taken at
    one point only, and its maximum only at an end."""
    disk = HOLED_DISK
    r2 = disk.hole_radius ** 2
    origin = (F(0), F(0))
    star = StarEmbedding(t)
    for i in range(1, 5):
        center, tip = star.leg(i)
        for j, hole in enumerate(disk.hole_centers, start=1):
            nearest = _nearest_on_segment(hole, center, tip)
            if i == j:
                assert nearest == tip and dist2(hole, tip) == r2, (t, i)
            else:
                assert dist2(hole, nearest) > r2, (t, i, j)
        assert dist2(origin, center) < 1
        assert dist2(origin, tip) == 1 if i == 4 else dist2(origin, tip) < 1, (t, i)


def test_leg_families_disjoint_away_from_tips():
    rng = random.Random(5)
    for _ in range(200):
        t = F(rng.randrange(-16, 17), 128)
        t2 = F(rng.randrange(-16, 17), 128)
        if t == t2:
            continue
        for i in (1, 2, 3, 4):
            assert verify_leg_family_disjointness(i, t, t2)
    with pytest.raises(ValueError, match="^parameters must differ$"):
        verify_leg_family_disjointness(1, F(1, 16), F(1, 16))


def test_whole_stars_always_cross():
    """Distinct whole stars are NOT pairwise disjoint: legs toward different
    marked points cross.  This is the exact counterexample geometry; see the
    known crossing of legs 1 and 3 at (-1/24, -1/24) for t = 1/16, t2 = -1/16."""
    t, t2 = F(1, 16), F(-1, 16)
    assert not verify_star_disjointness(t, t2)
    with pytest.raises(ValueError, match="^parameters must differ$"):
        verify_star_disjointness(t, t)
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


def _broken(star):
    """`star` with its first leg run straight through the central removed
    square of a level-2 carpet."""
    bad_leg = (star.center, (F(1, 2), F(1, 2)), star.legs[0][-1])
    return CarpetStar(star.center, (bad_leg,) + star.legs[1:], star.marks)


def test_verifier_rejects_broken_star():
    c = build_carpet_approx(2)
    star = embed_star_in_carpet(c, _default_mark_assignment(c, None))
    assert not verify_star_in_carpet(c, _broken(star))
    assert not verify_star_in_carpet(c, CarpetStar(star.center, star.legs[:3], star.marks[:3]))
    # a detour from the last kept cell down to the outer boundary, which no
    # mark of this star is on
    leg = star.legs[1]
    assert leg[-2] == (F(1, 6), F(1, 18))
    _check_rejected(c, _with_mark(star, 1, leg[:-1] + ((F(1, 6), F(0)),) + leg[-1:],
                                  star.marks[1]))


def test_k5_scaffold():
    s = build_k5_scaffold(level=2)
    assert verify_k5_graph(s)
    assert s.adjacency() == [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    assert len(s.marks) == 20   # ordered pairs


@pytest.mark.parametrize("k", [0, 4])
def test_k5_verifier_rejects_one_broken_copy(k):
    """The unseeded copies share one star, and replacing one of them, first
    or last, with a broken copy is caught: stars are told apart by identity."""
    s = build_k5_scaffold(level=2)
    stars = s.stars[:k] + (_broken(s.stars[k]),) + s.stars[k + 1:]
    assert not verify_star_in_carpet(s.carpet, stars[k])
    assert not verify_k5_graph(K5Scaffold(s.carpet, stars))
    assert verify_k5_graph(K5Scaffold(s.carpet, s.stars))


def test_k5_verifier_rejects_star_counts_and_another_level():
    s = build_k5_scaffold(level=2, seed=1)
    assert not verify_k5_graph(K5Scaffold(s.carpet, s.stars[:4]))
    assert not verify_k5_graph(K5Scaffold(s.carpet, s.stars + s.stars[:1]))
    for level in (3, 4):
        assert not verify_k5_graph(K5Scaffold(build_carpet_approx(level), s.stars))
    assert not verify_k5_graph(K5Scaffold(s.carpet, build_k5_scaffold(level=3).stars))


def test_k5_scaffold_deterministic():
    a = scaffold_to_json(build_k5_scaffold(level=2))
    b = scaffold_to_json(build_k5_scaffold(level=2))
    assert a == b


def test_k5_scaffold_seeded():
    for seed in (1, 2, 3):
        assert verify_k5_graph(build_k5_scaffold(level=2, seed=seed))


def _no_carpet(level):
    raise AssertionError("no carpet may be built")


def test_k5_level_too_small(monkeypatch):
    """A level below 2 is refused before any carpet is built: the scaffold
    marks level-2 squares."""
    monkeypatch.setattr(carpet, "build_carpet_approx", _no_carpet)
    for level in (-1, 0, 1):
        message = f"^scaffold needs carpets of level >= 2, got {level}$"
        with pytest.raises(ValueError, match=message):
            build_k5_scaffold(level=level)


def _no_route(carpet_, marks):
    raise RoutingError("stub: no route")


def test_k5_routing_failure_names_its_copy(monkeypatch):
    """A star that cannot be routed fails the scaffold with the index of the
    first copy marked that way."""
    monkeypatch.setattr(carpet, "embed_star_in_carpet", _no_route)
    with pytest.raises(RoutingError, match="^stub: no route$") as excinfo:
        build_k5_scaffold(level=2)
    assert excinfo.value.carpet_index == 0
    assert isinstance(excinfo.value.__cause__, RoutingError)


def test_svg_outputs():
    c = build_carpet_approx(2)
    svg = carpet_svg(c)
    assert svg.count("<rect") >= len(c.removed)
    s = build_k5_scaffold(level=2)
    doc = scaffold_svg(s)
    assert "<svg" in doc and "</svg>" in doc
    assert doc == scaffold_svg(build_k5_scaffold(level=2))


# --- the writers against the formulas they replaced --------------------------------

def _scaffold_dict(s: K5Scaffold) -> dict:
    """The scaffold document as a dict, edges read off the marks here:
    `json.dumps(_scaffold_dict(s), indent=2)` is `scaffold_to_json`'s byte
    oracle."""
    def pt(p):
        return [str(p[0]), str(p[1])]

    edges = sorted({tuple(sorted(k)) for k in s.marks})
    return {
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
    }


def _carpet_svg_oracle(c: CarpetApprox) -> str:
    """`carpet_svg` as four float formats per removed square."""
    size = 600.0
    n = 3 ** c.level
    body = [f'<rect x="0" y="0" width="{size:.0f}" height="{size:.0f}" fill="#e8e0d0"/>']
    for x, y, s in c.removed:
        x, y, s = x / n * size, y / n * size, s / n * size
        body.append(f'<rect x="{x:.3f}" y="{size - y - s:.3f}" width="{s:.3f}" '
                    f'height="{s:.3f}" fill="#ffffff" stroke="#999" stroke-width="0.5"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
            f'viewBox="0 0 {size:.0f} {size:.0f}">\n' + "\n".join(body) + "\n</svg>\n")


def _scaffold_svg_oracle(s: K5Scaffold) -> str:
    """`scaffold_svg` as float formats per hole rectangle and per leg point."""
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

    n = 3 ** s.level
    holes = [(x / n * cs, y / n * cs, side / n * cs) for x, y, side in s.carpet.removed]
    for i, star in enumerate(s.stars):
        ox, oy = centers[i]
        body.append(f'<rect x="{ox:.1f}" y="{oy:.1f}" width="{cs:.0f}" height="{cs:.0f}" '
                    'fill="#e8e0d0" stroke="#555"/>')
        for x, y, side in holes:
            body.append(f'<rect x="{ox + x:.2f}" y="{oy + cs - y - side:.2f}" width="{side:.2f}" '
                        f'height="{side:.2f}" fill="#ffffff" stroke="#aaa" stroke-width="0.4"/>')
        for leg in star.legs:
            pts = " ".join("{:.2f},{:.2f}".format(*to_abs(i, p)) for p in leg)
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


@lru_cache(maxsize=None)
def _scaffold(level: int, seed) -> K5Scaffold:
    return build_k5_scaffold(level, seed)


@settings(max_examples=60, deadline=None)
@given(level=st.sampled_from((2, 3)), seed=st.none() | st.integers(0, 11),
       stars=st.integers(0, 5), legs=st.lists(st.integers(0, 4), min_size=5, max_size=5))
@example(level=4, seed=None, stars=5, legs=[4] * 5)
@example(level=2, seed=1, stars=0, legs=[4] * 5)
@example(level=3, seed=2, stars=5, legs=[0, 1, 2, 3, 4])
def test_scaffold_json_matches_json_dumps(level, seed, stars, legs):
    """`scaffold_to_json` writes the bytes `json.dumps(..., indent=2)` writes
    for the document's dict: on seeded level-2 and level-3 scaffolds and the
    unseeded level-4 one, and on copies cut to their first `stars` stars,
    star i to its first legs[i] legs and marks (empty stars, legs and edges
    included)."""
    s = _scaffold(level, seed)
    cut = K5Scaffold(s.carpet, tuple(
        CarpetStar(star.center, star.legs[:k], star.marks[:k])
        for star, k in zip(s.stars[:stars], legs)))
    for scaffold in (s, cut):
        assert scaffold_to_json(scaffold) == json.dumps(_scaffold_dict(scaffold), indent=2)
        assert scaffold.edges == sorted({tuple(sorted(k)) for k in scaffold.marks})


def test_carpet_svg_matches_per_rectangle_formulas():
    for level in range(7):
        c = build_carpet_approx(level)
        assert carpet_svg(c) == _carpet_svg_oracle(c), level


def test_scaffold_svg_matches_per_point_formulas():
    """Levels 2-4, unseeded (one star shared by all five copies) and seeded
    (distinct stars, marks on every side)."""
    for level, seed in ((2, None), (2, 1), (2, 2), (2, 5), (3, None), (3, 1), (3, 7),
                        (4, None), (4, 3)):
        s = _scaffold(level, seed)
        assert scaffold_svg(s) == _scaffold_svg_oracle(s), (level, seed)


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
    if len({mark.cell for mark in star.marks}) != 4:
        return False
    peripheral = _peripheral_squares(carpet.level)
    for mark in star.marks:
        own = _square(mark.cell, carpet.level)
        if own not in peripheral or not own.on_boundary(mark.point):
            return False
    segs = [list(zip(leg[:-1], leg[1:])) for leg in star.legs]
    for a in range(4):
        for b in range(a + 1, 4):
            for p, q in segs[a]:
                for r, s in segs[b]:
                    kind, pt = segment_common(p, q, r, s)
                    if kind == OVERLAP or (kind != DISJOINT and pt != star.center):
                        return False
    removed = _reference_carpet(carpet.level)[1]
    for leg_segs, mark in zip(segs, star.marks):
        own = _square(mark.cell, carpet.level)
        for p, q in leg_segs:
            for sq in removed:
                hit = segment_in_box(p, q, sq.x, sq.y, sq.x + sq.side, sq.y + sq.side)
                if hit is None:
                    continue
                if hit[0] != hit[1]:
                    return False
                if not (sq == own and lerp(p, q, hit[0]) == mark.point):
                    return False
            for pt in (p, q):
                if not (0 <= pt[0] <= 1 and 0 <= pt[1] <= 1):
                    return False
                if (pt[0] in (0, 1) or pt[1] in (0, 1)) and not (
                        own == OUTER and pt == mark.point):
                    return False
    return True


@lru_cache(maxsize=None)
def _routed_stars():
    """(carpet, star) pairs from K5 scaffolds at level 2 (several seeds) and 3."""
    pairs = []
    for level, seed in ((2, None), (2, 1), (2, 2), (2, 5), (2, 7), (3, None)):
        s = build_k5_scaffold(level=level, seed=seed)
        pairs.extend((s.carpet, star) for star in s.stars)
    return tuple(pairs)


def _with_leg(star, k, leg):
    return CarpetStar(star.center, star.legs[:k] + (leg,) + star.legs[k + 1:], star.marks)


def _check_rejected(carpet, bad):
    assert not _oracle_verify(carpet, bad)
    assert not verify_star_in_carpet(carpet, bad)


def _with_mark(star, k, leg, mark):
    return CarpetStar(star.center, star.legs[:k] + (leg,) + star.legs[k + 1:],
                      star.marks[:k] + (mark,) + star.marks[k + 1:])


def test_verifier_rejects_marks_off_peripheral_squares():
    c = build_carpet_approx(2)
    star = embed_star_in_carpet(c, _default_mark_assignment(c, None))
    # the first leg cut at its second-to-last vertex, a kept-cell centre,
    # with the kept cell (0, 0, 1) named as its mark
    cut = star.legs[0][:-1]
    assert cut[-1] == (F(5, 18), F(7, 18))
    _check_rejected(c, _with_mark(star, 0, cut, MarkedPoint((0, 0, 1), cut[-1])))
    # the same cut named as a point of the real mark's square: not on its boundary
    _check_rejected(c, _with_mark(star, 0, cut, MarkedPoint(star.marks[0].cell, cut[-1])))
    # a kept cell's boundary point, and a square that is not a carpet square
    leg = star.legs[1]
    for cell in ((1, 0, 1), (1, 1, 2)):
        assert _square(cell, 2).on_boundary(leg[-1])
        _check_rejected(c, _with_mark(star, 1, leg, MarkedPoint(cell, leg[-1])))
    # two legs marked on one square
    m1, m3 = star.marks[1], star.marks[3]
    _check_rejected(c, _with_mark(star, 3, star.legs[3], MarkedPoint(m1.cell, m3.point)))
    # the outer square, with its point off the outer boundary
    _check_rejected(c, _with_mark(star, 1, leg, MarkedPoint((0, 0, 9), leg[-1])))


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
    sq = _square(data.draw(st.sampled_from(carpet.removed), label="cell"), carpet.level)
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
    sq = _square(mark.cell, carpet.level)
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
