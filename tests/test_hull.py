"""The convex hull of ConvexPolygon against exact arithmetic and the symmetries of the plane.

The oracle decides in fractions.Fraction, so no rounding can hide a polygon that is not a
hull: every vertex is an input point, every consecutive triple turns strictly left and the
edges go once around, and every point that starts a dedup cell lies within default_tol of
the polygon (a point that merges into its cell lies within the cell of that one).  The
inputs are the ones on which ordering points by cell made the chain zigzag: thin-ellipse
corners, noisy segments, near-vertical slivers, ulp clusters and box corners, at scales
1e-150 to 1e150, and sets near the top of the float range, where orientation products
overflowed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow import support
from setflow.support import default_tol

KINDS = ["cloud", "ulp cluster", "thin ellipse", "noisy segment", "sliver", "box corners", "huge"]


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def huge_box(s):
    return np.array([[-s, -s], [s, -s], [s, s], [-s, s]])


@st.composite
def hull_inputs(draw):
    """(kind, points): a point set of one of KINDS, from one derandomized generator."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-150, 150)
    if kind == "cloud":
        pts = rng.standard_normal((rng.integers(1, 300), 2))
    elif kind == "ulp cluster":  # a few ulps around one point, so most points share a cell
        c = rng.standard_normal(2)
        pts = c + rng.integers(-8, 9, (rng.integers(2, 40), 2)) * np.spacing(np.abs(c))
    elif kind == "thin ellipse":  # the corners reconstruct_polygon takes the hull of
        grid = sf.DirectionGrid(int(rng.choice([64, 256, 1024, 4096])))
        d = rng.standard_normal(2)
        d /= np.hypot(*d)
        u = grid.directions
        width = np.hypot(2.0 * (u @ d), 10.0 ** rng.uniform(-4, 0) * (u @ [-d[1], d[0]]))
        pts = support._line_corners(width, grid)
    elif kind == "noisy segment":
        a, b = rng.standard_normal((2, 2))
        t = rng.uniform(0.0, 1.0, rng.integers(3, 200))
        noise = 10.0 ** rng.uniform(-16, -11) * rng.standard_normal((len(t), 2))
        pts = a + np.outer(t, b - a) + noise
    elif kind == "sliver":  # x-extent 1e-150 .. 1e-10 of the height: inside one x cell
        k = rng.integers(3, 50)
        pts = np.column_stack([10.0 ** rng.uniform(-150, -10) * rng.random(k),
                               rng.uniform(-1.0, 1.0, k)])
    elif kind == "box corners":
        grid = sf.DirectionGrid(int(rng.choice([64, 256, 1024])))
        lo, hi = np.sort(rng.standard_normal((2, 2)), axis=0)
        box = sf.ConvexPolygon.box((lo[0], hi[0]), (lo[1], hi[1]))
        pts = support._line_corners(sf.support_of_polygon(box, grid).values, grid)
    else:  # 1e150 .. 1e307, where products of coordinates overflowed
        scale = 10.0 ** rng.uniform(150, 307)
        pts = huge_box(1.0) if rng.random() < 0.5 else rng.standard_normal((30, 2))
    return kind, scale * pts


def turn(o, a, b) -> Fraction:
    """Twice the signed area of (o, a, b), exactly: positive for a strict left turn."""
    (ox, oy), (ax, ay), (bx, by) = ((Fraction(x), Fraction(y)) for x, y in (o, a, b))
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def lower_half(e) -> bool:
    """The direction of the edge e lies in [pi, 2 pi), exactly."""
    dx, dy = Fraction(e[1][0]) - Fraction(e[0][0]), Fraction(e[1][1]) - Fraction(e[0][1])
    return dy < 0 or (dy == 0 and dx < 0)


def exact_distance_squared(x, v) -> Fraction:
    """The squared distance from x to the polygon of vertices v (CCW; 1 or 2 allowed)."""
    x = (Fraction(x[0]), Fraction(x[1]))
    v = [(Fraction(a), Fraction(b)) for a, b in v]
    if len(v) >= 3 and all(turn(v[i], v[(i + 1) % len(v)], x) >= 0 for i in range(len(v))):
        return Fraction(0)
    best = None
    for i in range(len(v) if len(v) >= 3 else 1):
        a, b = v[i], v[(i + 1) % len(v)]
        d = (b[0] - a[0], b[1] - a[1])
        r = (x[0] - a[0], x[1] - a[1])
        dd = d[0] * d[0] + d[1] * d[1]
        t = min(Fraction(1), max(Fraction(0), (r[0] * d[0] + r[1] * d[1]) / dd)) if dd else 0
        gap = (r[0] - t * d[0], r[1] - t * d[1])
        dist = gap[0] * gap[0] + gap[1] * gap[1]
        best = dist if best is None else min(best, dist)
    return best


def float_distances(x, v) -> np.ndarray:
    """The distance of each point of x to the polygon of vertices v, in floats (0 inside)."""
    a = v
    b = np.roll(v, -1, axis=0) if len(v) >= 3 else v[::-1]
    e = b - a
    ee = np.maximum((e * e).sum(axis=1), np.finfo(float).tiny)
    out = np.empty(len(x))
    for k in range(0, len(x), 256):  # 256 x len(v) pairs at a time
        r = x[k:k + 256, None, :] - a
        t = np.clip((r * e).sum(axis=2) / ee, 0.0, 1.0)
        gap = np.hypot(*np.moveaxis(r - t[..., None] * e, 2, 0)).min(axis=1)
        inside = (e[:, 0] * r[..., 1] - e[:, 1] * r[..., 0] >= 0.0).all(axis=1)
        out[k:k + 256] = np.where(inside & (len(v) >= 3), 0.0, gap)
    return out


def cell_starts(pts, tol) -> np.ndarray:
    """The first point given of each dedup cell (coordinates / tol rounded half to even)."""
    _, first = np.unique(np.round(pts / tol), axis=0, return_index=True)
    return pts[np.sort(first)]


@settings(max_examples=120)
@given(hull_inputs())
def test_hull_is_exactly_convex_and_holds_its_points(case):
    kind, pts = case
    v = sf.ConvexPolygon.from_points(pts).vertices
    given_points = {tuple(p) for p in bits(pts).tolist()}
    assert all(tuple(p) in given_points for p in bits(v).tolist())
    assert len({tuple(p) for p in bits(v).tolist()}) == len(v)
    if len(v) >= 3:
        corners = [tuple(p) for p in v.tolist()]
        triples = zip(corners, corners[1:] + corners[:1], corners[2:] + corners[:2])
        assert all(turn(o, a, b) > 0 for o, a, b in triples)
        edges = list(zip(corners, corners[1:] + corners[:1]))
        halves = [lower_half(e) for e in edges]
        assert sum(h and not g for h, g in zip(halves, halves[1:] + halves[:1])) == 1  # once
    tol = float(default_tol(pts.ravel()))
    starts = cell_starts(pts, tol)
    e = -math.frexp(float(np.abs(pts).max()))[1]  # in floats at 2^e, where nothing overflows
    near = float_distances(np.ldexp(starts, e), np.ldexp(v, e)) > math.ldexp(0.5 * tol, e)
    for x in starts[near]:  # the others are far within tol
        assert exact_distance_squared(x, v.tolist()) <= Fraction(tol) ** 2


def support_values(v, u) -> np.ndarray:
    """max over the vertices v of <u_i, v>, for each direction u_i, 256 vertices at a time."""
    return np.max([(u @ v[k:k + 256].T).max(axis=1) for k in range(0, len(v), 256)], axis=0)


@settings(max_examples=120)
@given(hull_inputs())
def test_quarter_turn_commutes_with_the_hull(case):
    # (x, y) -> (-y, x) maps dedup cells onto cells (rounding half to even is odd), so both
    # ways give the same set; the chain may keep other vertices within its flat distance
    kind, pts = case
    turned = sf.ConvexPolygon.from_points(pts[:, ::-1] * [-1.0, 1.0]).vertices
    v = sf.ConvexPolygon.from_points(pts).vertices[:, ::-1] * [-1.0, 1.0]
    u = sf.DirectionGrid(2048).directions
    gap = support_values(turned, u) - support_values(v, u)
    assert np.abs(gap).max() <= default_tol(pts.ravel())


@settings(max_examples=100)
@given(hull_inputs(), st.integers(0, 1023))
def test_hull_scales_by_powers_of_two_bit_for_bit(case, k):
    # from |points|_inf = 1 up the cells, the flat distance and every turn scale exactly, also
    # past 2^500, where the hull starts to rescale: these inputs have no subnormal coordinate
    kind, pts = case
    unit = np.ldexp(pts, 1 - math.frexp(float(np.abs(pts).max()))[1])  # |unit|_inf in [1, 2)
    got = sf.ConvexPolygon.from_points(np.ldexp(unit, k)).vertices
    base = sf.ConvexPolygon.from_points(unit).vertices
    assert got.shape == base.shape and np.array_equal(bits(got), bits(np.ldexp(base, k)))


@pytest.mark.parametrize("s", [0.9e160, 1e200, 0.9e306, 1.7e308])
def test_a_huge_box_keeps_its_four_corners(s):
    # the orientation products of these corners overflowed to inf, inf - inf was NaN, and
    # the chain kept the diagonal of the box alone
    box = sf.ConvexPolygon.box((-s, s), (-s, s))
    assert np.array_equal(bits(box.vertices), bits(huge_box(s)))
    assert len(sf.ConvexPolygon.from_points(huge_box(s)[[2, 0, 3, 1, 0]])) == 4


def test_a_huge_cloud_has_the_hull_of_its_unit_copy():
    # 30 normal points scaled by 2^515 (about 1e155): the scaled products overflowed, and the
    # "hull" had 37 vertices
    pts = np.random.default_rng(30).standard_normal((30, 2))
    got = sf.ConvexPolygon.from_points(np.ldexp(pts, 515)).vertices
    unit = sf.ConvexPolygon.from_points(pts).vertices
    assert np.array_equal(bits(got), bits(np.ldexp(unit, 515)))
    assert len(got) <= 30

