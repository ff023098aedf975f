"""Exact rational 2D predicates: orientation, segment intersection, clipping.

All inputs are points with Fraction coordinates; every answer is exact.  No
square roots appear anywhere (distances are compared squared).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

Point = tuple[Fraction, Fraction]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0 collinear."""
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    if orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


# classification tags for segment_common
DISJOINT = "disjoint"
POINT = "point"
OVERLAP = "overlap"


def segment_common(a: Point, b: Point, c: Point, d: Point):
    """Intersection of closed segments ab and cd.

    Returns (DISJOINT, None), (POINT, p) with the exact intersection point,
    or (OVERLAP, None) when the common set is a nondegenerate segment.
    """
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return POINT, _line_cross(a, b, c, d)
    if o1 == 0 and o2 == 0:
        # collinear: compare parameter intervals along ab's direction
        pts = _collinear_overlap(a, b, c, d)
        if pts is None:
            return DISJOINT, None
        lo, hi = pts
        if lo == hi:
            return POINT, lo
        return OVERLAP, None
    # general position but with endpoint incidences
    touch = None
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if on_segment(p, u, v):
            if touch is not None and touch != p:
                # two distinct touch points with non-collinear segments cannot happen
                return OVERLAP, None
            touch = p
    if touch is not None:
        return POINT, touch
    if o1 != o2 and o3 != o4:
        return POINT, _line_cross(a, b, c, d)
    return DISJOINT, None


def _line_cross(a: Point, b: Point, c: Point, d: Point) -> Point:
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
    return (a[0] + t * r[0], a[1] + t * r[1])


def _collinear_overlap(a: Point, b: Point, c: Point, d: Point):
    axis = 0 if a[0] != b[0] else 1
    if a[axis] == b[axis]:
        # ab degenerate
        if on_segment(a, c, d):
            return a, a
        return None
    lo1, hi1 = sorted((a, b), key=lambda p: p[axis])
    lo2, hi2 = sorted((c, d), key=lambda p: p[axis])
    lo = max(lo1, lo2, key=lambda p: p[axis])
    hi = min(hi1, hi2, key=lambda p: p[axis])
    if lo[axis] > hi[axis]:
        return None
    return lo, hi


def segment_in_box(a: Point, b: Point, x0: Fraction, y0: Fraction,
                   x1: Fraction, y1: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """Parameter interval [t0, t1] of segment a + t(b-a) inside the closed box,
    or None if the segment misses the box.  Exact Liang-Barsky clip."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    t0, t1 = Fraction(0), Fraction(1)
    for p, q in ((-dx, a[0] - x0), (dx, x1 - a[0]), (-dy, a[1] - y0), (dy, y1 - a[1])):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    if t0 > t1:
        return None
    return t0, t1


def lerp(a: Point, b: Point, t: Fraction) -> Point:
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


def dist2(a: Point, b: Point) -> Fraction:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
