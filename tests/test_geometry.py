from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from coxbound.geometry import (DISJOINT, OVERLAP, POINT, _numerators, _orient,
                               on_segment, segment_common, segment_in_box)


def P(x, y):
    return (F(x), F(y))


def orient(a, b, c):
    """Sign of the cross product (b-a) x (c-a): +1 left turn, -1 right, 0
    collinear, from the library's predicate on common-denominator numerators."""
    (a, b, c), _ = _numerators((a, b, c))
    return _orient(a, b, c)


def test_orient_sign():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) > 0
    assert orient(P(0, 0), P(0, 1), P(1, 0)) < 0
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0


def test_on_segment():
    assert on_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not on_segment(P(3, 3), P(0, 0), P(2, 2))
    assert not on_segment(P(1, 0), P(0, 0), P(2, 2))
    assert on_segment(P(0, 0), P(0, 0), P(2, 2))   # endpoint counts


def test_proper_crossing():
    kind, p = segment_common(P(0, 0), P(2, 2), P(0, 2), P(2, 0))
    assert kind == POINT and p == P(1, 1)


def test_touch_at_endpoint():
    kind, p = segment_common(P(0, 0), P(1, 1), P(1, 1), P(2, 0))
    assert kind == POINT and p == P(1, 1)


def test_t_junction():
    kind, p = segment_common(P(0, 0), P(2, 0), P(1, 0), P(1, 5))
    assert kind == POINT and p == P(1, 0)


def test_disjoint_parallel_and_skew():
    assert segment_common(P(0, 0), P(1, 0), P(0, 1), P(1, 1))[0] == DISJOINT
    assert segment_common(P(0, 0), P(1, 0), P(2, 1), P(3, 5))[0] == DISJOINT
    # collinear but separated
    assert segment_common(P(0, 0), P(1, 0), P(2, 0), P(3, 0))[0] == DISJOINT


def test_collinear_overlap():
    kind, seg = segment_common(P(0, 0), P(2, 0), P(1, 0), P(3, 0))
    assert kind == OVERLAP and seg is None
    # collinear meeting at one point is a POINT, not an overlap
    kind, p = segment_common(P(0, 0), P(1, 0), P(1, 0), P(2, 0))
    assert kind == POINT and p == P(1, 0)


def test_exactness_with_tiny_fractions():
    eps = F(1, 10**40)
    kind, _ = segment_common(P(0, 0), P(1, eps), P(0, eps), P(1, 0))
    assert kind == POINT   # float arithmetic would likely miss this


def test_segment_in_box():
    box = (F(0), F(0), F(1), F(1))
    # fully inside
    assert segment_in_box(P(F(1, 4), F(1, 4)), P(F(3, 4), F(1, 2)), *box) == (F(0), F(1))
    # fully outside
    assert segment_in_box(P(2, 2), P(3, 3), *box) is None
    # crossing: clip parameters at the walls
    t = segment_in_box(P(F(-1), F(1, 2)), P(F(2), F(1, 2)), *box)
    assert t == (F(1, 3), F(2, 3))
    # grazing a corner yields a degenerate interval
    t = segment_in_box(P(-1, 1), P(1, -1), *box)
    assert t == (F(1, 2), F(1, 2))


# --- the integer predicates against their Fraction oracles --------------------------
#
# The bodies below are the predicates as they computed before they decided
# their signs on integer numerators: every difference and product a Fraction,
# the crossing point and the clip parameters divided out.  They take Fraction
# coordinates only (`/` on ints would give a float).

def _fraction_orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _fraction_on_segment(p, a, b):
    if _fraction_orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _fraction_segment_common(a, b, c, d):
    o1, o2 = _fraction_orient(a, b, c), _fraction_orient(a, b, d)
    o3, o4 = _fraction_orient(c, d, a), _fraction_orient(c, d, b)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return POINT, _fraction_line_cross(a, b, c, d)
    if o1 == 0 and o2 == 0:
        pts = _fraction_collinear_overlap(a, b, c, d)
        if pts is None:
            return DISJOINT, None
        lo, hi = pts
        if lo == hi:
            return POINT, lo
        return OVERLAP, None
    touch = None
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if _fraction_on_segment(p, u, v):
            if touch is not None and touch != p:
                return OVERLAP, None
            touch = p
    if touch is not None:
        return POINT, touch
    if o1 != o2 and o3 != o4:
        return POINT, _fraction_line_cross(a, b, c, d)
    return DISJOINT, None


def _fraction_line_cross(a, b, c, d):
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
    return (a[0] + t * r[0], a[1] + t * r[1])


def _fraction_collinear_overlap(a, b, c, d):
    axis = 0 if a[0] != b[0] else 1
    if a[axis] == b[axis]:
        if _fraction_on_segment(a, c, d):
            return a, a
        return None
    lo1, hi1 = sorted((a, b), key=lambda p: p[axis])
    lo2, hi2 = sorted((c, d), key=lambda p: p[axis])
    lo = max(lo1, lo2, key=lambda p: p[axis])
    hi = min(hi1, hi2, key=lambda p: p[axis])
    if lo[axis] > hi[axis]:
        return None
    return lo, hi


def _fraction_segment_in_box(a, b, x0, y0, x1, y1):
    dx, dy = b[0] - a[0], b[1] - a[1]
    t0, t1 = F(0), F(1)
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


def _as_fractions(*points):
    return [(F(x), F(y)) for x, y in points]


# coordinates as ints, as Fractions with small denominators, or either, on a
# small range so that collinear, overlapping and touching segments are common
INTS = st.integers(-4, 4)
FRACTIONS = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
COORDS = {"int": INTS, "fraction": FRACTIONS, "mixed": st.one_of(INTS, FRACTIONS)}


@st.composite
def point_sets(draw, count):
    """`count` points of one coordinate kind; some are forced onto the line
    through the first two, or onto earlier points, to hit the collinear,
    overlapping, shared-endpoint and degenerate cases."""
    coord = COORDS[draw(st.sampled_from(sorted(COORDS)), label="kind")]
    pts = [(draw(coord), draw(coord)) for _ in range(2)]
    while len(pts) < count:
        how = draw(st.sampled_from(["free", "free", "free", "repeat", "on line"]))
        if how == "repeat":
            pts.append(draw(st.sampled_from(pts)))
        elif how == "on line":
            (ax, ay), (bx, by) = pts[0], pts[1]
            lam = draw(st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2)]))
            pts.append((ax + lam * (bx - ax), ay + lam * (by - ay)))
        else:
            pts.append((draw(coord), draw(coord)))
    return draw(st.permutations(pts))


def _assert_same_answer(got, expected):
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    if got[1] is not None:
        assert all(type(v) in (int, F) for v in got[1])


@settings(max_examples=600, deadline=None)
@given(point_sets(4))
def test_segment_common_matches_fraction_oracle(pts):
    got = segment_common(*pts)
    _assert_same_answer(got, _fraction_segment_common(*_as_fractions(*pts)))
    if got[0] == POINT:
        # an endpoint comes back as the argument itself; a crossing as Fractions
        assert got[1] in pts or all(type(v) is F for v in got[1])


@settings(max_examples=300, deadline=None)
@given(point_sets(3))
def test_orient_and_on_segment_match_fraction_oracles(pts):
    fr = _as_fractions(*pts)
    assert orient(*pts) == _fraction_orient(*fr)
    assert on_segment(*pts) == _fraction_on_segment(*fr)


@settings(max_examples=400, deadline=None)
@given(point_sets(4))
def test_segment_in_box_matches_fraction_oracle(pts):
    a, b, (x0, y0), (x1, y1) = pts
    for box in ((x0, y0, x1, y1), (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))):
        got = segment_in_box(a, b, *box)
        fr = _as_fractions(a, b, box[:2], box[2:])
        expected = _fraction_segment_in_box(fr[0], fr[1], *fr[2], *fr[3])
        assert got == expected
        if got is not None:
            assert all(type(t) is F for t in got)


def test_integer_inputs_give_exact_crossings():
    """On ints a crossing is a Fraction, never a float from `/`."""
    kind, p = segment_common((0, 0), (3, 1), (0, 1), (3, 0))
    assert kind == POINT and p == (F(3, 2), F(1, 2)) and all(type(v) is F for v in p)
    assert segment_in_box((0, 0), (3, 0), 1, -1, 2, 1) == (F(1, 3), F(2, 3))
