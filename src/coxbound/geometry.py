"""Exact rational 2D predicates: orientation, segment intersection, clipping.

Coordinates are ints or Fractions, mixed freely; every answer is exact.  Each
predicate first brings its points to one common denominator, the product of
their distinct denominators (all positive), and then decides every sign on
the integer numerators: it builds no Fraction to compare and never divides.
A Fraction appears only in what a function returns, a crossing point or a
clip parameter.  No square roots appear anywhere.

`segment_common` decides from the four orientations: a proper crossing, a
collinear pair, or an endpoint of one segment on the other, and nothing
else, since segments that are not collinear share at most one point.
`segment_in_box` is Liang-Barsky clipping (Liang & Barsky, ACM TOG 3, 1984),
whose interval [t0, t1] stays nonempty until a boundary rejects it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Coord = int | Fraction
Point = tuple[Coord, Coord]
IntPoint = tuple[int, int]


def _numerators(points) -> tuple[list[IntPoint], int]:
    """`points` over one positive common denominator: the integer points of
    their numerators, and that denominator."""
    den = 1
    for d in {c.denominator for p in points for c in p}:
        den *= d
    return [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in points], den


def _orient(a: IntPoint, b: IntPoint, c: IntPoint) -> int:
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _on_segment(p: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    if _orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    (p, a, b), _ = _numerators((p, a, b))
    return _on_segment(p, a, b)


# classification tags for segment_common
DISJOINT = "disjoint"
POINT = "point"
OVERLAP = "overlap"


def segment_common(a: Point, b: Point, c: Point, d: Point):
    """Intersection of closed segments ab and cd.

    Returns (DISJOINT, None), (POINT, p) with the exact intersection point,
    or (OVERLAP, None) when the common set is a nondegenerate segment.  A
    point that is an endpoint comes back as that argument; a crossing inside
    both segments has Fraction coordinates.

    With o1, o2 the sides of c, d of line ab and o3, o4 those of a, b of line
    cd, there are three cases (O'Rourke, Computational Geometry in C):
    - all four nonzero, o1 != o2 and o3 != o4: a proper crossing, the one
      common point, inside both segments;
    - o1 = o2 = 0 (this includes a = b): the segments are collinear, and
      their parameter intervals along ab decide DISJOINT, POINT or OVERLAP;
    - otherwise they share at most one point, since two would put c and d on
      line ab, and that point is an endpoint of one lying on the other.  A
      crossing of the lines inside both segments with some orientation 0,
      say o1 = 0 != o2, lies at c: c is on line ab, line cd meets line ab
      only at c, and a, b are not strictly on one side of line cd.  Where
      several endpoints coincide, the first of b, a, d, c that lies on the
      other segment is returned.
    """
    given = (a, b, c, d)
    pts, den = _numerators(given)
    a, b, c, d = pts
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return POINT, _line_cross(a, b, c, d, den)
    if o1 == 0 and o2 == 0:
        # collinear: compare parameter intervals along ab's direction
        ends = _collinear_overlap(pts)
        if ends is None:
            return DISJOINT, None
        lo, hi = ends
        if pts[lo] == pts[hi]:
            return POINT, given[lo]
        return OVERLAP, None
    # not collinear and no proper crossing: see the docstring's third case
    for k, (u, v) in ((1, (c, d)), (0, (c, d)), (3, (a, b)), (2, (a, b))):
        if _on_segment(pts[k], u, v):
            return POINT, given[k]
    return DISJOINT, None


def _line_cross(a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint, den: int) -> Point:
    """The crossing of lines ab and cd, whose points are numerators over den:
    a + (t / denom)(b - a), built as Fractions."""
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    t = (c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]
    return (Fraction(a[0] * denom + t * r[0], denom * den),
            Fraction(a[1] * denom + t * r[1], denom * den))


def _collinear_overlap(pts: list[IntPoint]) -> Optional[tuple[int, int]]:
    """Indices into pts = [a, b, c, d] of the two ends of the common part of
    the collinear segments ab and cd, or None if they are disjoint."""
    a, b, c, d = pts
    axis = 0 if a[0] != b[0] else 1
    if a[axis] == b[axis]:
        # ab degenerate
        if _on_segment(a, c, d):
            return 0, 0
        return None

    def along(k):
        return pts[k][axis]

    lo1, hi1 = sorted((0, 1), key=along)
    lo2, hi2 = sorted((2, 3), key=along)
    lo = max(lo1, lo2, key=along)
    hi = min(hi1, hi2, key=along)
    if along(lo) > along(hi):
        return None
    return lo, hi


def segment_in_box(a: Point, b: Point, x0: Coord, y0: Coord, x1: Coord,
                   y1: Coord) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval [t0, t1] of segment a + t(b-a) inside the closed box,
    or None if the segment misses the box.  Exact Liang-Barsky clip: each
    parameter t = num / den is kept as its integer pair with den > 0."""
    (a, b, (x0, y0), (x1, y1)), _ = _numerators((a, b, (x0, y0), (x1, y1)))
    dx, dy = b[0] - a[0], b[1] - a[1]
    n0, d0, n1, d1 = 0, 1, 1, 1          # t0 = n0 / d0, t1 = n1 / d1
    for p, q in ((-dx, a[0] - x0), (dx, x1 - a[0]), (-dy, a[1] - y0), (dy, y1 - a[1])):
        if p == 0:
            if q < 0:
                return None
            continue
        if p < 0:
            q, p = -q, -p                # r = q / p, now with p > 0
            if q * d1 > n1 * p:
                return None
            if q * d0 > n0 * p:
                n0, d0 = q, p
        else:
            if q * d0 < n0 * p:
                return None
            if q * d1 < n1 * p:
                n1, d1 = q, p
    # t0 <= t1 throughout: they start at 0 and 1, t0 rises only to an r that
    # passed r <= t1, and t1 falls only to an r that passed r >= t0
    return Fraction(n0, d0), Fraction(n1, d1)


def lerp(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

