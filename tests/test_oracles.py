"""The array kernels against the per-vector reference code they replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the np.roll margin formula, the per-step classifier with four
separate cone tests, the per-index subtangent loop, and the per-vertex
point-to-polygon loops behind the Hausdorff distances, the realizing
directions and the one-sided Lipschitz check, the per-frame argmin scan
that picked trajectory frames, the deque pass with its vertex and outside
helpers, the csv.writer table writers and the point-at-a-time support
profile loop.  The kernels keep the same floating-point operations in the
same order, so the comparisons are exact, not approximate (for the writers,
byte for byte).  Two exceptions: regularize, whose references are the
pairwise-vertex brute force (the clipping loop it replaced was not maximal)
and, at large n, the deque pass, both computed in long double and compared
within a fixed tolerance; and the distances, which now read support
functions and so meet their point-to-polygon loops within default_tol.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import tracemalloc
from collections import deque
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import setflow as sf
from setflow import HukuharaClass, OslCase, OslReport, cli, dynamics, formats, support, svg
from setflow.cli import EXAMPLE_RECTS, EXAMPLE_TARGET, _frame_indices
from setflow.dynamics import osl_rows
from setflow.sampling import random_rectangle, rectangle_pairs
from setflow.support import default_tol

TOL_REL = 1e-9


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def roll_margins(values, grid):
    """The np.roll formula, with each non-finite margin taken again from values / 4 and
    multiplied by 4 (both exact): no overflow turns a margin of finite values into NaN."""
    s = np.asarray(values, dtype=float)
    m = np.roll(s, 1) + np.roll(s, -1) - grid.two_cos_delta * s
    q = s / 4.0
    again = 4.0 * (np.roll(q, 1) + np.roll(q, -1) - grid.two_cos_delta * q)
    return np.where(np.isfinite(m), m, again)


def reference_in_cone(values, grid) -> bool:
    tol = TOL_REL * max(1.0, float(np.max(np.abs(values))))
    return not np.any(roll_margins(values, grid) < -tol)


def reference_classify_step(c, k) -> HukuharaClass:
    t = c.times
    v = [s.values for s in c.samples]
    fwd = (v[k + 1] - v[k]) / (t[k + 1] - t[k])
    bwd = (v[k] - v[k - 1]) / (t[k] - t[k - 1])
    first = reference_in_cone(fwd, c.grid) and reference_in_cone(bwd, c.grid)
    second = reference_in_cone(-fwd, c.grid) and reference_in_cone(-bwd, c.grid)
    if first and second:
        return HukuharaClass.BOTH
    if first:
        return HukuharaClass.FIRST_TYPE
    if second:
        return HukuharaClass.SECOND_TYPE
    return HukuharaClass.NEITHER


def reference_subtangent(v, sigma, grid):
    if not (np.isfinite(v).all() and np.isfinite(sigma).all()):
        return False, math.nan, math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows overflow, to be redone
        a, b = roll_margins(v, grid).tolist(), roll_margins(sigma, grid).tolist()
    tol = TOL_REL * max(1.0, float(np.max(np.abs(v))))
    flat = 1e-12 * max(1.0, float(np.max(np.abs(sigma))))
    lam_min, lam_max = 0.0, math.inf
    for ai, bi in zip(a, b):
        if abs(bi) > flat and math.isnan((-tol - ai) / bi):  # inf / inf: no bound
            return False, math.nan, math.nan
        if bi > flat:
            lam_min = max(lam_min, (-tol - ai) / bi)
        elif bi < -flat:
            lam_max = min(lam_max, (-tol - ai) / bi)
        elif ai < -tol:
            return False, math.nan, math.nan
    if lam_min > lam_max:
        return False, math.nan, math.nan
    return True, lam_min, lam_max


# ------------------------------------------------------------------ cone margins

stacks = st.tuples(st.integers(1, 6), st.integers(3, 512)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-1e6, 1e6, allow_subnormal=False)
    )
)


@settings(max_examples=60, deadline=None)
@given(stacks)
def test_stacked_margins_match_roll_formula_bit_for_bit(stack):
    grid = sf.DirectionGrid(stack.shape[1])
    margins = sf.cone_margins(stack, grid)
    verdict = sf.is_in_cone(stack, grid)
    assert verdict.shape == stack.shape[:1]
    for k, row in enumerate(stack):
        assert np.array_equal(bits(margins[k]), bits(roll_margins(row, grid)))
        assert verdict[k] == sf.is_in_cone(row, grid) == reference_in_cone(row, grid)


def test_margins_reject_wrong_length():
    with pytest.raises(sf.GridMismatch):
        sf.cone_margins(np.zeros((3, 63)), sf.DirectionGrid(64))


# ---------------------------------------------------------------- classification

def example_curves():
    grid = sf.DirectionGrid(64)
    q = sf.ConvexPolygon.box(*EXAMPLE_TARGET)
    field = sf.relax_to(sf.support_of_polygon(q, grid))
    curves = []
    for rect in EXAMPLE_RECTS.values():
        sigma0 = sf.support_of_polygon(sf.ConvexPolygon.box(*rect), grid)
        curve = sf.integrate(field, sigma0, 4.0, 0.01).curve()
        curves += [curve, sf.time_reverse(curve)]
    return curves


EXAMPLE_CURVES = example_curves()


def test_classification_matches_four_test_reference():
    for curve in EXAMPLE_CURVES:
        whole, steps = sf.classify_curve(curve)
        expected = [reference_classify_step(curve, k) for k in range(1, len(curve) - 1)]
        assert steps == expected
        assert [sf.classify_step(curve, k) for k in range(1, len(curve) - 1)] == expected
        first = all(s in (HukuharaClass.FIRST_TYPE, HukuharaClass.BOTH) for s in expected)
        second = all(s in (HukuharaClass.SECOND_TYPE, HukuharaClass.BOTH) for s in expected)
        assert (whole in (HukuharaClass.FIRST_TYPE, HukuharaClass.BOTH)) == first
        assert (whole in (HukuharaClass.SECOND_TYPE, HukuharaClass.BOTH)) == second


# ------------------------------------------------------------------- subtangent

def assert_same_interval(res, ref):
    feasible, lam_min, lam_max = res
    assert np.ndim(feasible) == 0 and bool(feasible) == ref[0]
    assert bits(lam_min) == bits(ref[1])
    assert bits(lam_max) == bits(ref[2])


def test_subtangent_matches_loop_on_random_cone_pairs():
    rng = np.random.default_rng(101)
    for n in (8, 64, 257):
        grid = sf.DirectionGrid(n)
        for _ in range(40):
            sigma = sf.random_cone_sample(grid, rng).values
            other = sf.random_cone_sample(grid, rng).values
            for v in (other - sigma, other, -other, rng.normal(size=n)):
                ref = reference_subtangent(v, sigma, grid)
                assert_same_interval(sf.subtangent_feasible(v, sigma, grid), ref)


def test_subtangent_matches_loop_on_flat_margin_violation():
    grid = sf.DirectionGrid(64)
    sigma = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-2, 0)), grid).values
    v = np.zeros(64)
    v[5] = 1.0  # margin -2cos(delta) at index 5, where the box has no edge
    assert abs(roll_margins(sigma, grid)[5]) <= 1e-12
    ref = reference_subtangent(v, sigma, grid)
    assert ref[0] is False
    assert_same_interval(sf.subtangent_feasible(v, sigma, grid), ref)


def subtangent_row(grid, rng, sigma_kind, v_kind):
    """One (v, sigma) row.  Box sigmas have flat margins, dented ones a few negative
    margins (an upper bound on lambda), huge ones margins that overflow (to +inf
    for n = 8, so that a bound (-tol - a) / b is -0.0); nan kinds hold a NaN entry, the inf
    kind of v an infinite one, and the huge kind of v is +-sigma (at n = 3 the margins of a
    huge sigma and of such a v both overflow, and a bound is inf / inf)."""
    n = grid.n
    if sigma_kind == "box":
        sigma = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-2, 0)), grid).values
    elif sigma_kind == "huge":  # a disc of radius 8e307 plus a set, up to 1.37e308
        sigma = 8e307 * (1.0 + sf.random_cone_sample(grid, rng).values / 3.0)
    else:
        sigma = sf.random_cone_sample(grid, rng).values.copy()
        if sigma_kind == "dented":
            sigma[rng.integers(n)] -= 0.1 * default_tol(sigma)
        elif sigma_kind == "nan":
            sigma[rng.integers(n)] = np.nan
    if v_kind == "zero":
        return np.zeros(n), sigma
    if v_kind == "bump":
        v = np.zeros(n)
        v[rng.integers(n)] = 1.0
        return v, sigma
    if v_kind == "cone":  # w - kappa * sigma, kappa = 0 for a huge sigma (no overflow)
        kappa = rng.uniform(0.0, 4.0) if sigma_kind != "huge" else 0.0
        return sf.random_cone_sample(grid, rng).values - kappa * sigma, sigma
    if v_kind == "huge":
        return rng.choice([-1.0, 1.0]) * sigma, sigma
    v = rng.normal(size=n)
    if v_kind == "nan":
        v[rng.integers(n)] = np.nan
    elif v_kind == "inf":
        v[rng.integers(n)] = rng.choice([-np.inf, np.inf])
    return v, sigma


@st.composite
def subtangent_stacks(draw):
    """(v, sigma, grid) with v and sigma stacks of shape (k, n) or (j, k, n)."""
    grid = sf.DirectionGrid(draw(st.sampled_from([3, 8, 64, 257])))
    lead = draw(st.sampled_from([(), (2,), (3,)])) + (draw(st.integers(1, 6)),)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma_kinds = st.sampled_from(["cone", "dented", "box", "huge", "nan"])
    v_kinds = st.sampled_from(["zero", "bump", "cone", "noise", "nan", "inf", "huge"])
    rows = [subtangent_row(grid, rng, draw(sigma_kinds), draw(v_kinds))
            for _ in range(math.prod(lead))]
    v, sigma = (np.array(r).reshape(lead + (grid.n,)) for r in zip(*rows))
    return v, sigma, grid


@settings(max_examples=150)
@given(subtangent_stacks())
def test_stacked_subtangent_matches_rows_and_loop(case):
    v, sigma, grid = case
    feasible, lam_min, lam_max = sf.subtangent_feasible(v, sigma, grid)
    assert feasible.shape == lam_min.shape == lam_max.shape == v.shape[:-1]
    for i in np.ndindex(v.shape[:-1]):
        ref = reference_subtangent(v[i], sigma[i], grid)
        assert_same_interval(sf.subtangent_feasible(v[i], sigma[i], grid), ref)
        assert_same_interval((feasible[i], lam_min[i], lam_max[i]), ref)


# ------------------------------------------------------- nearest points on polygons

def reference_segment_nearest(x, a, b):
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return a
    t = float((x - a) @ d) / denom
    t = min(1.0, max(0.0, t))
    return a + t * d


def reference_convex_hull(points, tol):
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    keys = np.round(pts / tol).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    kept = [pts[order[0]]]
    last_key = tuple(keys[order[0]])
    for j in order[1:]:
        kj = tuple(keys[j])
        if kj != last_key:
            kept.append(pts[j])
            last_key = kj
    pts = np.array(kept)
    if len(pts) == 1:
        return pts
    flat = 1e-12 * max(1.0, float(np.max(np.abs(pts))))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chord(o, b):
        return math.hypot(b[0] - o[0], b[1] - o[1])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= flat * chord(lower[-2], p):
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= flat * chord(upper[-2], p):
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        return np.array([pts[0], pts[-1]])
    return np.array(hull)


def reference_contains(p, x) -> bool:
    """x on the inner side of every edge line of p (>= 3 vertices), exactly: within a
    tolerance of every edge line is not within it of p, as p may be thin."""
    v = p.vertices
    e = np.roll(v, -1, axis=0) - v
    r = np.asarray(x, dtype=float) - v
    return bool(np.all(e[:, 0] * r[:, 1] - e[:, 1] * r[:, 0] >= 0.0))


def reference_project_point(x, p):
    x = np.asarray(x, dtype=float)
    v = p.vertices
    if len(v) == 1:
        return v[0].copy()
    if len(v) >= 3 and reference_contains(p, x):
        return x.copy()
    best = None
    best_d = math.inf
    m = len(v)
    edges = range(1) if m == 2 else range(m)
    for j in edges:
        cand = reference_segment_nearest(x, v[j], v[(j + 1) % m])
        d = float(np.hypot(*(x - cand)))
        if d < best_d:
            best_d = d
            best = cand
    return best


def reference_point_to_polygon(x, p) -> float:
    x = np.asarray(x, dtype=float)
    return float(np.hypot(*(x - reference_project_point(x, p))))


def reference_hausdorff_onesided(p, q) -> float:
    return max(reference_point_to_polygon(v, q) for v in p.vertices)


def reference_farthest_realizer(p, q):
    tol = default_tol(np.append(p.vertices, q.vertices))
    dists = np.array([reference_point_to_polygon(v, q) for v in p.vertices])
    if dists.max() <= tol:
        raise sf.Contained("dist(P, Q) vanishes; no realizing direction")
    k = int(np.flatnonzero(dists >= dists.max() - tol)[0])  # the least index within tol
    a = p.vertices[k].copy()
    return a, reference_project_point(a, q)


def reference_realizing_directions(a, b, grid):
    tol = default_tol(np.append(a.vertices, b.vertices))
    d_ab = reference_hausdorff_onesided(a, b)
    d_ba = reference_hausdorff_onesided(b, a)
    if d_ab <= tol:
        raise sf.Contained("A is contained in B; no realizing direction")
    if d_ab < max(d_ab, d_ba) - tol:
        raise sf.AsymmetricDistance("swap the arguments")
    indices = set()
    for v in a.vertices:
        if reference_point_to_polygon(v, b) >= d_ab - tol:
            w = reference_project_point(v, b)
            k, _ = grid.nearest_index(v - w)
            indices.add(k)
    return tuple(sorted(indices))


def reference_osl_check(f, a, b, t, rate):
    tol = default_tol(np.append(a.vertices, b.vertices))
    d_ab = reference_hausdorff_onesided(a, b)
    d_ba = reference_hausdorff_onesided(b, a)
    dh = max(d_ab, d_ba)
    if dh <= tol:
        return None
    grid = f.grid
    fa = f.eval(t, sf.support_of_polygon(a, grid).values)
    fb = f.eval(t, sf.support_of_polygon(b, grid).values)
    bound = rate * dh
    cases = []
    try:
        forward = reference_farthest_realizer(a, b) if d_ab >= dh - tol else None
        reverse = reference_farthest_realizer(b, a) if d_ba >= dh - tol else None
    except sf.Contained:
        return None
    if forward is not None:
        pa, pb = forward
        idx, err = grid.nearest_index(pa - pb)
        lhs = float(fa[idx] - fb[idx])
        cases.append(OslCase("forward", pa, pb, idx, err, lhs, bound, lhs <= bound + tol))
    if reverse is not None:
        qb, qa = reverse
        idx, err = grid.nearest_index(qb - qa)
        lhs = float(fb[idx] - fa[idx])
        cases.append(OslCase("reverse", qa, qb, idx, err, lhs, bound, lhs <= bound + tol))
    return OslReport(any(c.satisfied for c in cases), dh, tuple(cases))


def outcome(fn, *args):
    """fn(*args), or the class of the setflow error it raised."""
    try:
        return fn(*args)
    except sf.SetflowError as exc:
        return type(exc)


def same_bits(x, y) -> bool:
    return bits(x).tobytes() == bits(y).tobytes()


coords = st.floats(-1.0, 1.0, allow_subnormal=False)
points = st.tuples(coords, coords)


@st.composite
def scaled_polygons(draw, scale=None):
    """A polygon with 1, 2 or >= 3 vertices at a coordinate scale 1e-3 .. 1e3."""
    if scale is None:
        scale = 10.0 ** draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["point", "segment", "polygon"]))
    count = {"point": 1, "segment": 2, "polygon": draw(st.integers(3, 9))}[kind]
    pts = scale * np.array(draw(st.lists(points, min_size=count, max_size=count)))
    return sf.ConvexPolygon.from_points(pts), scale


@st.composite
def probes(draw, p, scale):
    """Query points inside, outside, and within a hair of the boundary of p."""
    v = p.vertices
    where = draw(st.sampled_from(["inside", "outside", "boundary", "vertex"]))
    if where == "inside":
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(v), max_size=len(v))))
        x = (w / w.sum()) @ v if w.sum() > 0 else v[0]
    elif where == "outside":
        x = 3.0 * scale * np.array(draw(points))
    else:
        j = draw(st.integers(0, len(v) - 1))
        s = 0.0 if where == "vertex" else draw(st.floats(0.0, 1.0))
        x = v[j] + s * (v[(j + 1) % len(v)] - v[j])
    hair = scale * 10.0 ** draw(st.integers(-16, -6))
    return x + hair * np.array(draw(points))


def close(x, y, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(x) - np.asarray(y)) <= tol))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_projection_matches_vertex_loop(data):
    p, scale = data.draw(scaled_polygons())
    for _ in range(data.draw(st.integers(1, 6))):
        x = data.draw(probes(p, scale))
        tol = default_tol(np.append(p.vertices, x))
        assert close(sf.project_point(x, p), reference_project_point(x, p), tol)
        point = sf.ConvexPolygon.point(x)
        assert close(sf.hausdorff_onesided(point, p), reference_point_to_polygon(x, p), tol)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hull_matches_point_loop_bit_for_bit(data):
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    pts = scale * np.array(data.draw(st.lists(points, min_size=1, max_size=12)))
    # near-duplicates within the dedup tolerance, exact repeats and a collinear run
    hair = scale * 10.0 ** data.draw(st.integers(-16, -8))
    pts = np.concatenate([pts, pts[:3] + hair * np.array(data.draw(points)), pts[-2:]])
    pts = np.concatenate([pts, pts[0] + np.outer(np.linspace(0.0, 1.0, 4), pts[-1] - pts[0])])
    ref = reference_convex_hull(pts, default_tol(pts.ravel()))
    assert same_bits(sf.ConvexPolygon.from_points(pts).vertices, ref)


def assert_hull_matches_point_loop(pts, got=None):
    """The polygon of pts (or got) has the reference hull's vertices, bit for bit."""
    pts = np.asarray(pts, dtype=float)
    ref = reference_convex_hull(pts, default_tol(pts.ravel()))
    got = sf.ConvexPolygon.from_points(pts).vertices if got is None else got
    assert got.shape == ref.shape and same_bits(got, ref)


@pytest.mark.parametrize("n", [64, 1024, 4096])
@pytest.mark.parametrize("shape", ["ellipse", "box"])
def test_hull_of_reconstructions_matches_point_loop(shape, n):
    # every corner of an ellipse is a vertex; a box repeats each corner n/4 times
    grid = sf.DirectionGrid(n)
    u = grid.directions
    if shape == "ellipse":
        sample = sf.SupportSample(grid, np.hypot(1.5 * u[:, 0], 0.8 * u[:, 1]))
    else:
        sample = sf.support_of_polygon(sf.ConvexPolygon.box((-2.0, 1.0), (0.5, 3.0)), grid)
    # the points reconstruct_polygon takes the hull of: consecutive supporting lines meet
    th, s = grid.angles, sample.values
    thn, sn = np.roll(th, -1), np.roll(s, -1)
    d = math.sin(grid.delta)
    pts = np.column_stack([(s * np.sin(thn) - sn * np.sin(th)) / d,
                           (sn * np.cos(th) - s * np.cos(thn)) / d])
    assert_hull_matches_point_loop(pts)
    assert_hull_matches_point_loop(pts, sf.reconstruct_polygon(sample).vertices)


@pytest.mark.parametrize("size", [1, 2, 3, 8, 64, 1024, 4096])
def test_hull_of_gaussian_clouds_matches_point_loop(size):
    rng = np.random.default_rng(size)
    for scale in (1e-4, 1.0, 1e4):
        assert_hull_matches_point_loop(scale * rng.normal(size=(size, 2)))


def half_key_ties(tol, ks):
    """(k, x) with x / tol exactly k + 0.5 in floating point, for each k that has one."""
    ties = []
    for k in ks:
        x = (k + 0.5) * tol
        near = [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        ties += [(k, c) for c in near if c / tol == k + 0.5][:1]
    return ties


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_hull_rounds_half_key_ties_to_even(axis, sign):
    # x sits on the tie between keys k and k + 1, both of which hold a point listed
    # after it: x takes the even key, merges with that point and keeps its own bits
    tol = default_tol(np.ones(1))  # every coordinate below is under 1 in size
    ties = half_key_ties(tol, range(1, 200))
    assert {k % 2 for k, _ in ties} == {0, 1}
    for k, x in ties:
        run = sign * np.array([[x, 0.0], [(k + 1) * tol, 0.0], [k * tol, 0.0]])
        assert_hull_matches_point_loop(run[:, ::-1] if axis else run)
        off_line = np.concatenate([run, [[0.5 * sign, 0.5]]])  # a triangle, not a segment
        assert_hull_matches_point_loop(off_line[:, ::-1] if axis else off_line)


def test_hull_keeps_the_first_of_signed_zeros():
    corners = [[1.0, -0.0], [-0.0, 1.0]]
    for zeros in ([[-0.0, 0.0], [0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0]]):
        for pts in (zeros + corners, corners + zeros, zeros[::-1] + corners[::-1]):
            assert_hull_matches_point_loop(pts)
    v = sf.ConvexPolygon.from_points([[-0.0, 0.0], [0.0, -0.0], [1.0, 0.0]]).vertices
    assert bits(v[0]).tolist() == bits([-0.0, 0.0]).tolist()


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_hull_of_points_segments_and_collinear_runs_matches_point_loop(scale):
    rng = np.random.default_rng(7)
    t = rng.permutation(np.linspace(-1.0, 1.0, 33))
    hair = 1e-14 * rng.normal(size=(33, 2))  # within the flat distance of the line
    for pts in (
        [[0.3, -0.7]],
        [[0.3, -0.7]] * 5,
        [[1.0, 2.0], [-3.0, 0.5]],
        [[1.0, 2.0], [-3.0, 0.5], [1.0, 2.0], [-1.0, 1.25]],
        np.outer(t, [3.0, -2.0]),
        np.outer(t, [0.0, 1.0]),
        np.outer(t, [1.0, 0.0]) + [0.0, 0.25],
        np.outer(t, [3.0, -2.0]) + hair,
    ):
        assert_hull_matches_point_loop(scale * np.asarray(pts))


def test_hull_of_a_thin_reconstruction_is_simple():
    # the corners of an ellipse of semi-axes 2 and 0.01 at n = 4096: near each tip one
    # dedup cell of x (default_tol wide) holds corners of both sides; ordered by cell, the
    # chain zigzagged there (4,104 vertices, 4,096 distinct, winding 9 times), and ordered
    # by exact (x, y) it turns once
    grid = sf.DirectionGrid(4096)
    u = grid.directions
    p = sf.reconstruct_polygon(sf.SupportSample(grid, np.hypot(2.0 * u[:, 0], 0.01 * u[:, 1])))
    assert len(p) <= 4096
    assert_turns_once(p)


def test_hull_of_a_noisy_segment_is_simple():
    # the same order off thin dense ellipses: the intersection of the halfplanes of a
    # segment 86 long, each moved by up to 1e-10 of the scale, at n = 257; ordered by cell,
    # its polygon had 7 vertices (6 distinct) and wound twice
    grid = sf.DirectionGrid(257)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.0, 1.0, (2, 2)) * 100.0
    s = (grid.directions @ pts.T).max(axis=1)
    s += 1e-10 * np.abs(s).max() * rng.uniform(-1.0, 1.0, grid.n)
    assert_turns_once(sf.halfplane_intersection(s, grid))


def assert_turns_once(p):
    """p's vertices are distinct and its edges turn once around, counterclockwise."""
    assert len(np.unique(p.vertices, axis=0)) == len(p)
    e = np.diff(p.vertices, axis=0, append=p.vertices[:1])
    heading = np.arctan2(e[:, 1], e[:, 0])
    turns = (np.diff(heading, append=heading[:1]) + math.pi) % (2.0 * math.pi) - math.pi
    assert turns.sum() == pytest.approx(2.0 * math.pi)


def test_distances_to_a_thin_reconstruction_are_right():
    # the polygon of test_hull_of_a_thin_reconstruction_is_simple, which wound before its
    # points were ordered by exact (x, y): the box's farthest point from it is the tip (2, 0)
    # at distance 1, up to the corners' grid offset (about 4e-8 in y) and rounding
    grid = sf.DirectionGrid(4096)
    u = grid.directions
    p = sf.reconstruct_polygon(sf.SupportSample(grid, np.hypot(2.0 * u[:, 0], 0.01 * u[:, 1])))
    box = sf.ConvexPolygon.box((-1, 1), (-0.001, 0.001))
    assert sf.hausdorff_exact(p, box) == pytest.approx(1.0, abs=1e-12)
    assert sf.hausdorff_onesided(box, p) == 0.0
    a, b = sf.farthest_realizer(p, box)
    assert a == pytest.approx([2.0, 0.0], abs=1e-7) and b == pytest.approx([1.0, 0.0], abs=1e-7)
    assert a[1] == b[1] and np.all(sf.project_point((0, 0), p) == 0.0)


@pytest.mark.parametrize(
    "pts, message",
    [
        ([[0.0, 0.0], [math.nan, 1.0]], "polygon vertices must be finite"),
        ([[5.0, 0.0], [1.0, math.nan]], "polygon vertices must be finite"),
        ([[math.inf, 0.0]], "polygon vertices must be finite"),
        ([[0.0, 0.0], [1.0, -math.inf]], "polygon vertices must be finite"),
        (np.empty((0, 2)), "a polygon needs at least one vertex"),
        ([], "a polygon needs at least one vertex"),
    ],
)
def test_hull_rejects_non_finite_and_empty_input(pts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sf.ConvexPolygon.from_points(pts)


@st.composite
def polygon_pairs(draw):
    """Two polygons at one scale: unrelated, one inside the other, shifted, or equal."""
    p, scale = draw(scaled_polygons())
    relation = draw(st.sampled_from(["unrelated", "shrunk", "shifted", "equal"]))
    if relation == "unrelated":
        q, _ = draw(scaled_polygons(scale))
    elif relation == "shrunk":
        c = p.vertices.mean(axis=0)
        q = sf.ConvexPolygon.from_points(c + draw(st.floats(0.0, 0.9)) * (p.vertices - c))
    elif relation == "shifted":
        q = sf.ConvexPolygon.from_points(p.vertices + scale * 0.1 * np.array(draw(points)))
    else:
        q = p
    return (p, q) if draw(st.booleans()) else (q, p)


@settings(max_examples=300, deadline=None)
@given(polygon_pairs())
def test_distances_and_realizers_match_vertex_loops(pair):
    p, q = pair
    tol = default_tol(np.append(p.vertices, q.vertices))
    assert close(sf.hausdorff_onesided(p, q), reference_hausdorff_onesided(p, q), tol)
    assert close(
        sf.hausdorff_exact(p, q),
        max(reference_hausdorff_onesided(p, q), reference_hausdorff_onesided(q, p)),
        tol,
    )
    got = outcome(sf.farthest_realizer, p, q)
    ref = outcome(reference_farthest_realizer, p, q)
    if isinstance(ref, type):
        assert got is ref is sf.Contained
    else:
        assert same_bits(got[0], ref[0]) and close(got[1], ref[1], tol)
    for n in (8, 64):
        grid = sf.DirectionGrid(n)
        got = outcome(sf.hausdorff_realizing_directions, p, q, grid)
        assert got == outcome(reference_realizing_directions, p, q, grid)


@st.composite
def wide_range_pairs(draw):
    """A thin polygon at a scale 1e-6 .. 1e6, or the 4096-gon reconstructed from an ellipse
    of axis ratio 0.1 .. 1 at a scale 1e-6 .. 1e6, and a polygon of scaled_polygons at that
    scale.  Below scale 1 one dedup cell (1e-9 wide) holds several corners of such a
    4096-gon, and they merge."""
    angle = draw(st.floats(0.0, math.pi))
    d = np.array([math.cos(angle), math.sin(angle)])
    e = np.array([-d[1], d[0]])
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-6, 6))
        count = draw(st.integers(3, 9))
        t, s = np.array(draw(st.lists(points, min_size=count, max_size=count))).T
        s *= 10.0 ** draw(st.integers(-6, -2))  # the width, relative to the length
        p = sf.ConvexPolygon.from_points(scale * (np.outer(t, d) + np.outer(s, e) + draw(points)))
    else:
        scale = 10.0 ** draw(st.integers(-6, 6))
        grid = sf.DirectionGrid(4096)
        u = grid.directions
        width = scale * np.hypot(u @ d, draw(st.floats(0.1, 1.0)) * (u @ e))
        p = sf.reconstruct_polygon(sf.SupportSample(grid, width + scale * (u @ draw(points))))
    q, _ = draw(scaled_polygons(scale))
    return (p, q) if draw(st.booleans()) else (q, p)


@settings(max_examples=10, deadline=None)
@given(wide_range_pairs())
def test_distances_match_vertex_loops_on_thin_sets_and_4096_gons(pair):
    # the realizer may take another vertex within default_tol of the distance than the
    # loop does, and a direction one grid step away, as more vertices tie on dense sets
    p, q = pair
    tol = default_tol(np.append(p.vertices, q.vertices))
    to_q = np.array([reference_point_to_polygon(v, q) for v in p.vertices])
    assert close(sf.hausdorff_onesided(p, q), to_q.max(), tol)
    assert close(sf.hausdorff_onesided(q, p), reference_hausdorff_onesided(q, p), tol)
    got = outcome(sf.farthest_realizer, p, q)
    if to_q.max() <= tol:
        assert got is sf.Contained
    else:
        (k,) = np.flatnonzero((p.vertices == got[0]).all(axis=1))
        assert to_q[k] >= to_q.max() - tol
        assert close(got[1], reference_project_point(got[0], q), tol)
    grid = sf.DirectionGrid(64)
    got = outcome(sf.hausdorff_realizing_directions, p, q, grid)
    ref = outcome(reference_realizing_directions, p, q, grid)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert all(any(min((i - j) % 64, (j - i) % 64) <= 1 for j in ref) for i in got)


def assert_same_report(got, ref, tol):
    if not isinstance(ref, OslReport):  # None, or the class of an error
        assert got is ref
        return
    assert got.satisfied == ref.satisfied
    assert close(got.hausdorff, ref.hausdorff, tol)
    assert len(got.cases) == len(ref.cases)
    for c, r in zip(got.cases, ref.cases):
        assert (c.order, c.direction_index, c.satisfied) == (
            r.order, r.direction_index, r.satisfied
        )
        for name in ("a", "b", "snap_error", "lhs", "bound"):
            assert close(getattr(c, name), getattr(r, name), tol)


@settings(max_examples=200, deadline=None)
@given(
    polygon_pairs(),
    st.sampled_from([8, 64]),
    st.sampled_from(["expand", "relax_to"]),
    st.floats(0.0, 2.0),
)
def test_osl_check_matches_two_branch_reference(pair, n, kind, t):
    a, b = pair
    grid = sf.DirectionGrid(n)
    if kind == "expand":
        field = sf.expansion_field(grid, 2.0)
    else:
        field = sf.relax_to(sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (0, 2)), grid))
    tol = default_tol(np.append(a.vertices, b.vertices))
    for omega in (0.0, 1.0):
        got = outcome(sf.osl_check, field, a, b, t, omega)
        assert_same_report(got, outcome(reference_osl_check, field, a, b, t, omega), tol)


def test_osl_check_reaches_every_outcome():
    """Both orders, a contained realizer, asymmetric and degenerate pairs all occur."""
    grid = sf.DirectionGrid(16)
    field = sf.expansion_field(grid, 2.0)
    omega = 0.0
    square = sf.ConvexPolygon.box((-1, 1), (-1, 1))
    shifted = sf.ConvexPolygon.box((0, 2), (-1, 1))
    report = sf.osl_check(field, square, shifted, 0.5, omega)
    assert [c.order for c in report.cases] == ["forward", "reverse"]
    tol = default_tol(np.append(square.vertices, shifted.vertices))
    assert_same_report(report, reference_osl_check(field, square, shifted, 0.5, omega), tol)
    for a, b in (
        (square, square),
        # dist(A, B) = 0.8 tol attains dist_H = 1.5 tol within tol (= 1e-9), yet vanishes
        (sf.ConvexPolygon.box((-1, 1), (0, 8e-10)), sf.ConvexPolygon.box((-1, 1), (-1.5e-9, 0))),
    ):
        assert sf.osl_check(field, a, b, 0.0, omega) is None
        assert reference_osl_check(field, a, b, 0.0, omega) is None
    corner = sf.ConvexPolygon.box((0.5, 1.5), (0.5, 1.5))
    big = sf.ConvexPolygon.box((-3, 3), (-3, 3))
    for a, b, error in ((corner, square, sf.AsymmetricDistance), (square, big, sf.Contained)):
        assert outcome(sf.hausdorff_realizing_directions, a, b, grid) is error
        assert outcome(reference_realizing_directions, a, b, grid) is error


# ------------------------------------------------ the one-sided Lipschitz check on the grid
#
# check osl draws its rectangle pairs in batches (rectangle_pairs) and checks each batch
# on its support vectors in one stacked pass (osl_rows); the references are the
# sequential draw loop, the per-pair check it replaced (reference_osl_row) and the
# polygon check above, reference_osl_check.

class UniformStream:
    """A Generator stand-in serving prepared uniforms in order, as numpy's Generator
    consumes its stream: random(size) hands them out, uniform(low, high, size) hands
    out low + (high - low) * each."""

    def __init__(self, u):
        self.u, self.used = np.asarray(u, dtype=float), 0

    def random(self, size):
        k = int(np.prod(size))
        out = self.u[self.used : self.used + k].reshape(size)
        self.used += k
        return out

    def uniform(self, low, high, size=None):
        x = low + (high - low) * self.random(() if size is None else size)
        return float(x) if size is None else x


def corner_supports(box, grid):
    """Support values of a polygon as Python floats: the largest x cos + y sin over its vertices."""
    corners = box.vertices.tolist()
    return [max(x * c + y * s for x, y in corners) for c, s in grid.directions.tolist()]


@settings(max_examples=80)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 4, 5, 6, 8, 12, 64, 256, 1024]),  # the sign runs wrap differently
    st.floats(1e-3, 10.0),
    st.integers(1, 12),
)
def test_rectangle_pairs_replay_the_sequential_draws(seed, n, T, count):
    grid = sf.DirectionGrid(n)
    batched, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = UniformStream(np.random.default_rng(seed).random(9 * count))
    pairs, ts = rectangle_pairs(grid, T, count, batched)
    for k in range(count):
        boxes = random_rectangle(sequential), random_rectangle(sequential)
        t = sequential.uniform(0.0, T)
        assert same_bits(ts[k], t)
        for box, got in zip(boxes, pairs[k]):
            assert same_bits(got, corner_supports(box, grid))
        # the stand-in draws what the Generator draws
        streamed = random_rectangle(stream), random_rectangle(stream)
        assert all(same_bits(p.vertices, q.vertices) for p, q in zip(streamed, boxes))
        assert same_bits(stream.uniform(0.0, T), t)
    assert batched.random() == sequential.random()


def reference_ball_draws(sigma0, r, count, rng):
    """ball_draws as it was: outer products of the strided direction columns, widened in
    place into the even rows of the step stack, and the corners read off the same columns."""
    grid = sigma0.grid
    cos, sin = grid.directions.T
    tcos, tsin = np.roll(grid.directions, -1, axis=0).T
    vals, sn = sigma0.values, np.roll(sigma0.values, -1)
    corners = np.column_stack([(vals * tsin - sn * sin) / math.sin(grid.delta),
                               (sn * cos - vals * tcos) / math.sin(grid.delta)])
    reach = r * rng.uniform(size=count)
    steps = np.zeros((count, len(cos)))
    widen, shrink = steps[0::2], steps[1::2]
    for p in rng.uniform(-1.0, 1.0, (8, len(widen), 2)):
        np.maximum(widen, np.outer(p[:, 0], cos) + np.outer(p[:, 1], sin), out=widen)
    q = corners[rng.integers(len(cos), size=len(shrink))]
    shrink += np.outer(q[:, 0], cos) + np.outer(q[:, 1], sin) - sigma0.values
    norm = np.maximum(steps.max(axis=-1), -steps.min(axis=-1))
    cap = np.maximum(norm, reach * (np.arange(count) % 2))
    steps *= np.divide(reach, cap, out=np.zeros(count), where=norm > 0.0)[:, None]
    return np.add(steps, sigma0.values, out=steps)


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 4, 5, 8, 64, 256]),
    st.sampled_from([1, 2, 3, 99, 100, 101]),
    st.floats(-6.0, 6.0),
    st.sampled_from(["box", "polygon", "origin"]),
)
def test_ball_draws_have_the_bits_of_the_strided_reference(seed, n, count, log_r, kind):
    # the origin's support carries signed zeros (-0.0 in the third quadrant), and so do its
    # corners and its shrinking steps
    grid, rng = sf.DirectionGrid(n), np.random.default_rng(seed)
    if kind == "box":
        lo = rng.uniform(-3.0, 3.0, 2)
        poly = sf.ConvexPolygon.box(*zip(lo, lo + rng.uniform(0.0, 2.0, 2)))
    elif kind == "polygon":
        poly = sf.ConvexPolygon.from_points(rng.uniform(-2.0, 2.0, (int(rng.integers(3, 9)), 2)))
    else:
        poly = sf.ConvexPolygon.point((0.0, 0.0))
    sigma0, r = sf.support_of_polygon(poly, grid), 10.0**log_r
    got_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = sf.ball_draws(sigma0, r, count, got_rng)
    assert same_bits(got, reference_ball_draws(sigma0, r, count, ref_rng))
    assert got_rng.random() == ref_rng.random()  # the same draws, in the same order


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 29), max_size=10), st.integers(1, 20))
def test_check_osl_draws_as_the_sequential_loop_skipped_pairs_included(seed, repeats, samples):
    # a pair whose second box repeats the first has distance 0: both loops skip it and
    # draw on, and a batch with a skipped pair comes up short and draws the remainder
    u = np.random.default_rng(seed).random((40, 9))
    for k in repeats:
        u[k, 4:8] = u[k, 0:4]
    scenario = {
        "grid_n": 16, "T": 1.5, "h": 0.1, "rhs": {"kind": "expand", "rate": 1.0},
        "omega": {"kind": "zero"}, "samples": samples,
    }
    stream = UniformStream(u.ravel())
    with tempfile.TemporaryDirectory() as tmp:
        wit = Path(tmp) / "wit.csv"
        config = Path(tmp) / "scen.json"
        config.write_text(json.dumps(dict(scenario, output={"witnesses": str(wit)})))
        cfg = formats.load_scenario(config)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli._check_osl(cfg, stream) == 1  # expand 1 against omega 0: all violate
        got = [float(row.split(",")[0]) for row in wit.read_text().splitlines()[1:]]
    assert out.getvalue().startswith(f"osl: 0/{samples} pairs satisfied\n")
    sequential, want = UniformStream(u.ravel()), []
    while len(want) < samples:
        a, b = random_rectangle(sequential), random_rectangle(sequential)
        t = sequential.uniform(0.0, 1.5)
        if reference_osl_check(cfg.field, a, b, t, cfg.omega) is not None:
            want.append(t)
    assert same_bits(got, want)
    drawn = [k for k in range(40) if k not in repeats][samples - 1] + 1  # to the last kept pair
    assert stream.used == sequential.used == 9 * drawn


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([16, 64, 256]),
    st.sampled_from(["relax_to", "expand", "constant"]),
    st.floats(-2.0, 3.0),
    st.one_of(st.none(), st.floats(-1.0, 3.0)),
)
def test_osl_row_matches_the_polygon_reference(seed, n, kind, rate, omega_rate):
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(seed)
    if kind == "relax_to":
        field = sf.relax_to(sf.support_of_polygon(random_rectangle(rng), grid))
    elif kind == "expand":
        field = sf.expansion_field(grid, rate)
    else:
        field = sf.constant_field(sf.SupportDelta(grid, rate * rng.standard_normal(n)))
    omega = 0.0 if omega_rate is None else omega_rate
    twin = copy.deepcopy(rng)
    pairs, ts = rectangle_pairs(grid, 2.0, 16, rng)
    assert len(set(ts.tolist())) == 16  # a kept row is found by its time
    rows = {row[0]: row for row in osl_rows(field, pairs, ts.tolist(), omega)}
    for (x, y), t_batched in zip(pairs, ts.tolist()):
        row = rows.get(t_batched)
        a, b = random_rectangle(twin), random_rectangle(twin)
        t = twin.uniform(0.0, 2.0)
        ref = reference_osl_check(field, a, b, t, omega)
        if ref is None or row is None:
            assert ref is row is None  # random boxes never coincide
            continue
        _, dist, _, lhs, bound, satisfied = row
        tol = default_tol(np.concatenate([x, y, field.eval(t, x) - field.eval(t, y)]))  # the slack
        assert dist <= ref.hausdorff + tol  # the grid distance is a lower bound
        if all(c.snap_error <= 1e-12 for c in ref.cases):  # realizing directions on the grid
            assert abs(lhs - min(c.lhs for c in ref.cases)) <= tol
        if satisfied != ref.satisfied:
            # the one exception: lhs lies between omega * grid distance, the bound of
            # the grid check, and omega * exact distance, that of the polygon check
            lo, hi = sorted((bound, ref.cases[0].bound))
            assert lo - tol <= lhs <= hi + tol


def reference_osl_row(f, xy, t, rate):
    """The per-pair check that osl_rows replaced, a non-finite d failing its row: its row, or
    None for a skipped pair."""
    dist, pos, neg = support._extremal(xy[0] - xy[1])[0]  # the stack of one row
    if dist is None or dist <= (tol := float(default_tol(xy.ravel()))):
        return None
    d = np.subtract(*f.eval(t, xy))
    arms = np.full(len(d), math.inf)
    arms[pos], arms[neg] = d[pos], -d[neg]
    k = int(arms.argmin())  # the first NaN, if any
    lhs, bound = float(arms[k]), rate * dist
    ok = bool(np.isfinite(d).all()) and lhs <= bound + max(tol, float(default_tol(d)))
    return t, dist, k, lhs, bound, ok


def osl_field(kind, grid, rate, rng):
    """A field of the given kind; the NaN kinds put a NaN into d = f(t, x) - f(t, y) at index 0."""
    n = grid.n
    if kind == "relax_to":
        return sf.relax_to(sf.support_of_polygon(random_rectangle(rng), grid))
    if kind == "expand":
        return sf.expansion_field(grid, rate)
    if kind == "constant":
        return sf.constant_field(sf.SupportDelta(grid, rate * rng.standard_normal(n)))
    if kind == "t_dependent":  # no declared form: evaluated pair by pair, each at its own t
        return sf.RhsField(grid, lambda t, y: (1.0 + t) * rate * y)
    poison = np.r_[np.nan, rng.standard_normal(n - 1)]
    if kind == "nan_affine":  # declared, so evaluated once on the whole stack
        return sf.RhsField(grid, lambda t, y: poison - y, affine=(-1.0, poison))
    return sf.RhsField(grid, lambda t, y: (1.0 + t) * poison * y)  # "nan_t_dependent"


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 8, 64, 257]),
    st.integers(1, 20),
    st.sampled_from(["relax_to", "expand", "constant", "t_dependent", "nan_affine",
                     "nan_t_dependent"]),
    st.floats(-2.0, 3.0),
    st.floats(-1.0, 3.0),
)
def test_osl_rows_match_the_per_pair_check_bit_for_bit(seed, n, count, kind, rate, omega):
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(seed)
    field = osl_field(kind, grid, rate, rng)
    pairs, ts = rectangle_pairs(grid, 2.0, count, rng)
    for xy, shape in zip(pairs, rng.integers(0, 6, count).tolist()):
        i, j = rng.choice(n, 2, replace=False).tolist()
        if shape == 1:  # coinciding sets: skipped
            xy[0] = xy[1]
        elif shape == 2:  # g = +1.5 at i and -1.5 at j exactly: a +-|g| tie
            xy[0] = xy[1]
            xy[:, i], xy[:, j] = (2.5, 1.0), (-0.5, 1.0)
        elif shape == 3:  # |g| peaks at index 0 alone, where the NaN kinds have a NaN
            xy[0] = xy[1]
            xy[:, 0] = (rng.choice([-2.0, 2.0]), 0.0)
        elif shape == 4:  # vectors of no set, on a random scale
            xy[:] = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-3, 4)
        elif shape == 5:  # large vectors 1e-4 apart: skipped by the tolerance of x and y alone
            xy[1] = 1e6 * rng.standard_normal(n)
            xy[0] = xy[1] + 1e-4 * rng.standard_normal(n)
    want = [reference_osl_row(field, xy, t, omega) for xy, t in zip(pairs, ts.tolist())]
    got = osl_rows(field, pairs, ts.tolist(), omega)
    want = [row for row in want if row is not None]
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert [type(v) for v in row] == [type(v) for v in ref]
        assert same_bits(row, ref)


# -------------------------------------------------------------------- regularize

def reference_regularize(s, grid):
    """Support of the halfplane intersection of s by brute force, None if empty.

    The pairwise-vertex candidates of test_regularize_matches_vertex_candidate_oracle:
    every intersection of two non-parallel grid lines that satisfies all n
    halfplanes, in long double with a slack of 64 of its ulps times
    max(1, |s|_inf).
    """
    ld = np.longdouble
    u = grid.directions.astype(ld)
    s = np.asarray(s, dtype=ld)
    i, j = np.triu_indices(grid.n, 1)
    det = u[i, 0] * u[j, 1] - u[i, 1] * u[j, 0]
    keep = np.abs(det) > 1e-12
    i, j, det = i[keep], j[keep], det[keep]
    x = (s[i] * u[j, 1] - s[j] * u[i, 1]) / det
    y = (s[j] * u[i, 0] - s[i] * u[j, 0]) / det
    heights = u[:, :1] * x + u[:, 1:] * y  # (n, candidates)
    slack = 64 * np.finfo(ld).eps * max(ld(1), np.max(np.abs(s)))
    feasible = np.all(heights <= s[:, None] + slack, axis=0)
    if not feasible.any():
        return None
    return heights[:, feasible].max(axis=1).astype(float)


@st.composite
def raw_vectors(draw):
    """Supports of a point, segment, triangle or ellipse on n = 3..48 directions,
    at scale 1e-3..1e3, plus noise of 1e-9..1e-1 of the scale on all or some entries."""
    grid = sf.DirectionGrid(draw(st.integers(3, 48)))
    u = grid.directions
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    pts = scale * np.array(draw(st.lists(points, min_size=3, max_size=3)))
    kind = draw(st.sampled_from(["point", "segment", "triangle", "ellipse"]))
    if kind == "ellipse":
        axes = scale * np.array(draw(st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0))))
        base = np.hypot(axes[0] * u[:, 0], axes[1] * u[:, 1]) + u @ pts[0]
    else:
        count = {"point": 1, "segment": 2, "triangle": 3}[kind]
        base = (u @ pts[:count].T).max(axis=1)
    noise = scale * 10.0 ** draw(st.floats(-9.0, -1.0))
    bump = draw(hnp.arrays(np.float64, grid.n, elements=st.floats(-1.0, 1.0)))
    # noise on some entries only keeps the others' lines exactly concurrent
    hit = draw(hnp.arrays(np.bool_, grid.n)) if draw(st.booleans()) else True
    return grid, base + noise * bump * hit


@settings(max_examples=400)
@given(raw_vectors())
def test_regularize_matches_pairwise_vertex_brute_force(case):
    grid, s = case
    scale = max(1.0, float(np.max(np.abs(s))))
    ref = reference_regularize(s, grid)
    shift = 100 * support._FLAT_REL * scale
    stable = (reference_regularize(s + shift, grid) is None) == (
        reference_regularize(s - shift, grid) is None
    )
    try:
        r = sf.regularize(s, grid).values
    except sf.EmptyIntersection:
        assert ref is None or not stable
        return
    assert ref is not None or not stable
    if float(sf.cone_margins(s, grid).min()) >= -support._ULP_REL * scale:
        assert np.array_equal(r, s)  # in the cone up to rounding: passed through
    elif stable:  # within 100 _FLAT_REL of empty, sets of zero width tilt freely
        assert np.max(np.abs(r - ref)) <= 1e-12 * scale
    assert np.array_equal(sf.regularize(r, grid).values, r)
    assert np.all(r <= s + default_tol(s))
    assert sf.is_in_cone(r, grid)


def reference_deque_pass(s, grid, keep=None):
    """The deque pass with its vertex and outside helpers, one vertex tuple per entry,
    over the increasing grid indices in keep (all n when None)."""
    n = grid.n
    cs, sn = grid.directions.T.tolist()
    sv = s.tolist()

    def vertex(i, j):
        if 2 * ((j - i) % n) >= n:
            raise sf.EmptyIntersection("halfplane intersection is empty")
        det = cs[i] * sn[j] - sn[i] * cs[j]
        return (
            (sv[i] * sn[j] - sv[j] * sn[i]) / det,
            (sv[j] * cs[i] - sv[i] * cs[j]) / det,
        )

    def outside(v, j):
        return cs[j] * v[0] + sn[j] * v[1] > sv[j]

    lines = deque()
    verts = deque()
    for j in range(n) if keep is None else keep:
        while verts and outside(verts[-1], j):
            lines.pop()
            verts.pop()
        while verts and 2 * (j - lines[0]) > n and outside(verts[0], j):
            if 2 * ((lines[1] - j) % n) >= n:
                raise sf.EmptyIntersection("halfplane intersection is empty")
            lines.popleft()
            verts.popleft()
        if lines:
            verts.append(vertex(lines[-1], j))
        lines.append(j)
    while len(verts) >= 2 and outside(verts[-1], lines[0]):
        lines.pop()
        verts.pop()
    while len(verts) >= 2 and outside(verts[0], lines[-1]):
        lines.popleft()
        verts.popleft()
    if len(lines) < 3:
        raise sf.EmptyIntersection("halfplane intersection is empty")
    verts.append(vertex(lines[-1], lines[0]))
    return np.array(lines), np.array(verts)


def assert_same_pass(s, grid, keep=None):
    """_deque_pass against reference_deque_pass over keep (every line when None)."""
    keep = list(range(grid.n)) if keep is None else keep
    got = outcome(support._deque_pass, s, grid, keep)
    ref = outcome(reference_deque_pass, s, grid, keep)
    if got is sf.EmptyIntersection or ref is sf.EmptyIntersection:
        assert got is ref
        return
    assert np.array_equal(got[0], ref[0])
    assert got[1].shape == ref[1].shape and same_bits(got[1], ref[1])


@settings(max_examples=400)
@given(raw_vectors())
def test_deque_pass_matches_helper_version_bit_for_bit(case):
    grid, s = case
    assert_same_pass(s, grid)
    # the retry pass of an empty first pass moves every line out
    assert_same_pass(s + 1e-12 * max(1.0, float(np.max(np.abs(s)))), grid)


def assert_same_pruned_pass(s, grid):
    """The pass over the positive-margin lines that _active_lines tries first."""
    keep = np.flatnonzero(sf.cone_margins(s, grid) > 0).tolist()
    if len(keep) >= 3:  # with fewer, _active_lines passes every line
        assert_same_pass(s, grid, keep)


@settings(max_examples=400)
@given(raw_vectors())
def test_pruned_deque_pass_matches_helper_version_bit_for_bit(case):
    grid, s = case
    assert_same_pruned_pass(s, grid)


def test_deque_pass_keeps_the_lines_through_a_point():
    # the support of a point on 8 directions: all lines pass through it, and
    # rounding puts the front vertex beyond the antipodal line 4; the front
    # guard leaves that pair untested, where a test would pop line 0 and
    # find the point empty
    grid = sf.DirectionGrid(8)
    s = np.array([
        0.012884276560085143, 0.015729019236871172, 0.009359915767525378,
        -0.0024920994157670035, -0.012884276560085142, -0.015729019236871172,
        -0.00935991576752538, 0.002492099415767001,
    ])
    lines, verts = support._deque_pass(s, grid, list(range(8)))
    assert lines.tolist() == [0, 1, 2, 4, 5, 6, 7]
    assert_same_pass(s, grid)


def test_deque_pass_trims_the_front_when_it_closes():
    # the support of a horizontal segment on 12 directions: the pass ends with
    # lines 2, 3, 4, 9, 10, and the front vertex, where lines 2 and 3 meet at
    # the segment's right end, lies 5.6e-17 beyond line 10 through that end,
    # so the closing front trim drops line 2; no property-test input gets there
    grid = sf.DirectionGrid(12)
    s = sf.support_of_polygon(sf.ConvexPolygon.from_points([[0.5, 0.8], [-0.6, 0.8]]), grid)
    lines, verts = support._deque_pass(s.values, grid, list(range(12)))
    assert lines.tolist() == [3, 4, 9, 10]
    assert_same_pass(s.values, grid)


def noisy_ellipses(grid):
    """Three ellipse supports with uniform noise of 1e-9, 1e-6 and 1e-3 on every entry."""
    u = grid.directions
    rng = np.random.default_rng(grid.n)
    for noise in (1e-9, 1e-6, 1e-3):
        axes = rng.uniform(0.1, 2.0, 2)
        s = np.hypot(axes[0] * u[:, 0], axes[1] * u[:, 1]) + u @ rng.normal(size=2)
        yield s + noise * rng.uniform(-1.0, 1.0, grid.n)


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_deque_pass_matches_helper_version_on_noisy_ellipses(n):
    grid = sf.DirectionGrid(n)
    for s in noisy_ellipses(grid):
        assert_same_pass(s, grid)


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_pruned_deque_pass_matches_helper_version_on_noisy_ellipses(n):
    grid = sf.DirectionGrid(n)
    for s in noisy_ellipses(grid):
        assert_same_pruned_pass(s, grid)


def reference_active_lines(s, grid, m):
    """_active_lines as a chain of three passes: the pruned pass when it applies, then,
    when that pass is absent or finds the intersection empty, a pass over every line,
    then that pass with every line moved out."""
    keep = np.flatnonzero(m > 0)
    if len(keep) >= 3 and 2 * np.diff(keep, append=keep[0] + grid.n).max() < grid.n:
        try:
            return reference_deque_pass(s, grid, keep.tolist())
        except sf.EmptyIntersection:
            pass
    try:
        return reference_deque_pass(s, grid)
    except sf.EmptyIntersection:
        r0 = float(s.max()) / math.cos(grid.delta / 2.0)
        return reference_deque_pass(s + support._FLAT_REL * max(float(support._scale(s)), r0), grid)


@st.composite
def degenerate_vectors(draw):
    """Supports of a point, a segment or a thin triangle on n in {16, 64, 256} directions
    at scale 1e-3..1e3 with noise of 1e-14..1e-10 of the scale on every entry, or a raw
    vector of normal draws at that scale: inputs whose pruned pass can come out empty."""
    grid = sf.DirectionGrid(draw(st.sampled_from([16, 64, 256])))
    u = grid.directions
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["point", "segment", "thin triangle", "normal"]))
    if kind == "normal":
        return grid, scale * rng.normal(size=grid.n)
    pts = scale * rng.uniform(-1.0, 1.0, (3, 2))
    if kind == "thin triangle":  # the third vertex 1e-12..1e-4 of the scale off the middle
        d = pts[1] - pts[0]
        width = scale * 10.0 ** draw(st.floats(-12.0, -4.0))
        pts[2] = 0.5 * (pts[0] + pts[1]) + width * np.array([-d[1], d[0]]) / np.hypot(*d)
    count = {"point": 1, "segment": 2, "thin triangle": 3}[kind]
    noise = scale * 10.0 ** draw(st.floats(-14.0, -10.0))
    return grid, (u @ pts[:count].T).max(axis=1) + noise * rng.uniform(-1.0, 1.0, grid.n)


def regularize_and_polygon(s, grid):
    """regularize values and halfplane_intersection vertices of s, or EmptyIntersection."""
    return [outcome(lambda: sf.regularize(s, grid).values),
            outcome(lambda: sf.halfplane_intersection(s, grid).vertices)]


@settings(max_examples=400)
@given(degenerate_vectors())
def test_active_lines_matches_the_three_pass_chain_bit_for_bit(case):
    # a pruned pass that finds the intersection empty goes straight to the shifted
    # pass: a pass over every line can only cut a subset of the pruned intersection
    grid, s = case
    got = regularize_and_polygon(s, grid)
    with mock.patch.object(support, "_active_lines", reference_active_lines):
        ref = regularize_and_polygon(s, grid)
    for x, y in zip(got, ref):
        if x is sf.EmptyIntersection or y is sf.EmptyIntersection:
            assert x is y
        else:
            assert x.shape == y.shape and same_bits(x, y)


@st.composite
def noisy_polygons(draw):
    """Supports of 1 to 8 points on n = 3..1024 directions at scale 1e-4..1e4, with noise
    of 1e-14..1e-1 of the scale either way on every entry."""
    grid = sf.DirectionGrid(draw(st.integers(3, 1024)))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = scale * rng.uniform(-1.0, 1.0, (draw(st.integers(1, 8)), 2))
    noise = scale * 10.0 ** draw(st.floats(-14.0, -1.0))
    return grid, (grid.directions @ pts.T).max(axis=1) + noise * rng.uniform(-1.0, 1.0, grid.n)


def reference_halfplane_intersection(s, grid):
    """The polygon of the deque pass's own vertices, even for a vector in the cone: what
    halfplane_intersection returned before it became the polygon of regularize."""
    return sf.ConvexPolygon(support._active_lines(s, grid, sf.cone_margins(s, grid))[1])


DENSE_DIRECTIONS = sf.DirectionGrid(2048).directions


@settings(max_examples=300)
@given(degenerate_vectors() | noisy_polygons())
def test_halfplane_intersection_matches_the_deque_pass_polygon(case):
    # the same set, so the same support within default_tol; the vertices differ at
    # rounding level
    grid, s = case
    got = outcome(sf.halfplane_intersection, s, grid)
    ref = outcome(reference_halfplane_intersection, s, grid)
    if got is sf.EmptyIntersection or ref is sf.EmptyIntersection:
        assert got is ref
    else:
        u = np.vstack([grid.directions, DENSE_DIRECTIONS])
        gap = (u @ got.vertices.T).max(axis=1) - (u @ ref.vertices.T).max(axis=1)
        assert np.abs(gap).max() <= default_tol(s)


def test_regularize_keeps_a_short_edge():
    # line 2 lies 8.2e-6 beyond the corner of lines 1 and 3, so the
    # intersection is a quadrilateral with edges near 1e-5 long; the hull
    # behind the clipping loop kept only two of its vertices and returned
    # 9.1e-6 below the largest sample at direction 4
    grid = sf.DirectionGrid(5)
    s = np.array([0.30229192, -0.48999837, -0.60507879, 0.11603402, 0.67683414])
    r = sf.regularize(s, grid).values
    expected = s.copy()
    expected[2] = (s[1] + s[3]) / grid.two_cos_delta
    assert np.max(np.abs(r - reference_regularize(s, grid))) <= 1e-15
    assert np.max(np.abs(r - expected)) <= 1e-15


def longdouble_regularize(s, grid):
    """Support of the halfplane intersection of s, None if empty: the deque pass in long
    double, where a vertex on a line also counts as outside it (so a line that touches
    the polygon at a single point drops out), read as the largest <u_i, v> over the
    vertices v.  The grid directions are the float ones, the halfplanes regularize sees."""
    n = grid.n
    u = grid.directions.astype(np.longdouble)
    cs, sn, sv = list(u[:, 0]), list(u[:, 1]), list(np.asarray(s, dtype=np.longdouble))

    def vertex(i, j):
        det = cs[i] * sn[j] - sn[i] * cs[j]
        return (sv[i] * sn[j] - sv[j] * sn[i]) / det, (sv[j] * cs[i] - sv[i] * cs[j]) / det

    def outside(v, j):
        return cs[j] * v[0] + sn[j] * v[1] >= sv[j]

    lines, verts = deque(), deque()
    for j in range(n):
        while verts and outside(verts[-1], j):
            lines.pop()
            verts.pop()
        while verts and 2 * (j - lines[0]) > n and outside(verts[0], j):
            if 2 * ((lines[1] - j) % n) >= n:
                return None
            lines.popleft()
            verts.popleft()
        if lines:
            if 2 * ((j - lines[-1]) % n) >= n:
                return None
            verts.append(vertex(lines[-1], j))
        lines.append(j)
    while len(verts) >= 2 and outside(verts[-1], lines[0]):
        lines.pop()
        verts.pop()
    while len(verts) >= 2 and outside(verts[0], lines[-1]):
        lines.popleft()
        verts.popleft()
    if len(lines) < 3 or 2 * ((lines[0] - lines[-1]) % n) >= n:
        return None
    verts.append(vertex(lines[-1], lines[0]))
    v = np.array(verts, dtype=np.longdouble)
    return np.concatenate([  # blocks of 256 directions bound the (256, vertices) products
        (u[a : a + 256, :1] * v[:, 0] + u[a : a + 256, 1:] * v[:, 1]).max(axis=1)
        for a in range(0, n, 256)
    ])


def large_regularize_inputs(grid, rng):
    """Noisy ellipses (axis ratio 1e-3..1), boxes, points and segments at scale 1e-2..1e2.
    Ellipses and boxes get noise of 1e-8..1e-1 of their smallest width on 20..100% of
    the entries; points and segments get 1e-8..1e-1 of the scale on every entry, outward
    only, so that every intersection keeps an interior."""
    u = grid.directions
    for kind in ("ellipse",) * 5 + ("box", "point", "segment"):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        c = scale * rng.normal(size=2)
        noise = 10.0 ** rng.uniform(-8.0, -1.0) * rng.uniform(-1.0, 1.0, grid.n)
        if kind == "ellipse":
            a = scale * rng.uniform(0.1, 2.0)
            b = a * 10.0 ** rng.uniform(-3.0, 0.0)
            phi = rng.uniform(0.0, np.pi)
            w = u @ np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            base = np.hypot(a * w[:, 0], b * w[:, 1]) + u @ c
            noise *= b * (rng.random(grid.n) < rng.uniform(0.2, 1.0))
        elif kind == "box":
            half = scale * rng.uniform(0.1, 2.0, 2)
            x, y = c[:, None] + half[:, None] * [-1.0, 1.0]
            base = sf.support_of_polygon(sf.ConvexPolygon.box(x, y), grid).values
            noise *= half.min() * (rng.random(grid.n) < rng.uniform(0.2, 1.0))
        else:
            d = scale * rng.normal(size=2) if kind == "segment" else np.zeros(2)
            base = np.maximum(u @ (c + d), u @ (c - d))
            noise = scale * np.abs(noise)
        yield base + noise


def repair_inputs(grid, steps):
    """Euler steps of the box [-2, 2]^2 under minus the support of a unit segment at
    30 degrees, h = 0.01, before their repair: every one leaves the cone."""
    u = grid.directions
    delta = -0.5 * np.abs(u @ np.array([math.cos(math.pi / 6), math.sin(math.pi / 6)]))
    box = sf.support_of_polygon(sf.ConvexPolygon.box((-2.0, 2.0), (-2.0, 2.0)), grid)
    field = dynamics.constant_field(sf.SupportDelta(grid, delta))
    traj = sf.integrate(field, box, 0.01 * steps, 0.01, method="euler")
    assert traj.regularized[1:].all()
    return traj.states[:-1] + 0.01 * delta


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_regularize_matches_long_double_pass_at_large_n(n):
    # a vector outside the cone goes through one pass, which sees only the
    # positive-margin lines: no input here takes a fallback
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(n)
    passes = 0
    for s in [*large_regularize_inputs(grid, rng), *repair_inputs(grid, 50)[::10]]:
        scale = max(1.0, float(np.max(np.abs(s))))
        m = sf.cone_margins(s, grid)
        with mock.patch.object(support, "_deque_pass", wraps=support._deque_pass) as spy:
            r = sf.regularize(s, grid).values
        if float(m.min()) < -support._ULP_REL * scale:
            assert spy.call_count == 1 and spy.call_args.args[2] == np.flatnonzero(m > 0).tolist()
            passes += 1
        else:
            assert spy.call_count == 0
        assert np.max(np.abs(r - longdouble_regularize(s, grid))) <= 1e-12 * scale
    assert passes >= 8


def test_regularize_of_a_point_with_lines_a_half_turn_apart_takes_the_full_pass():
    # the origin's support with lines 1 and 31 moved out: only lines 0, 2, 30 and 32
    # have positive margins, and line 0 follows line 32 by pi, which the prune's
    # exactness argument excludes; the full pass finds the origin
    grid = sf.DirectionGrid(64)
    s = np.zeros(64)
    s[[1, 31]] = 1e-3
    assert np.flatnonzero(sf.cone_margins(s, grid) > 0).tolist() == [0, 2, 30, 32]
    with mock.patch.object(support, "_deque_pass", wraps=support._deque_pass) as spy:
        r = sf.regularize(s, grid).values
        p = sf.halfplane_intersection(s, grid)
    every = (list(range(64)),)
    assert [c.args[2:] for c in spy.call_args_list] == [every, every]  # one pass each
    assert np.array_equal(r, np.zeros(64)) and np.array_equal(p.vertices, [[0.0, 0.0]])


def test_regularize_of_a_noisy_point_falls_back_from_an_empty_pruned_pass():
    # noise of 1e-12 both ways empties the pruned pass; the pass over every line
    # moved out by the _FLAT_REL shift finds the point again
    grid = sf.DirectionGrid(16)
    rng = np.random.default_rng(0)
    p = rng.uniform(-1.0, 1.0, 2)
    s = grid.directions @ p + 1e-12 * rng.uniform(-1.0, 1.0, 16)
    keep = np.flatnonzero(sf.cone_margins(s, grid) > 0).tolist()
    with mock.patch.object(support, "_deque_pass", wraps=support._deque_pass) as spy:
        r = sf.regularize(s, grid).values
    assert [c.args[2:] for c in spy.call_args_list] == [(keep,), (list(range(16)),)]
    assert np.max(np.abs(r - grid.directions @ p)) <= 1e-11


def test_regularize_of_a_thin_ellipse_stays_within_the_readme_bound():
    # an ellipse of semi-axes 52.5 and 4.4e-7 at n = 4096 with noise 1.3e-11 on 57% of
    # the entries: the full pass alone is 5.0e-11 * scale from the long-double pass on
    # this seed, the pruned pass 1.8e-15 (1.0e-11 the worst of seeds 0-9)
    grid = sf.DirectionGrid(4096)
    u = grid.directions
    rng = np.random.default_rng(4)
    s = np.hypot(52.5 * u[:, 0], 4.4e-7 * u[:, 1]) + u @ np.array([-88.5, -32.4])
    s = s + 1.3e-11 * rng.uniform(-1.0, 1.0, 4096) * (rng.random(4096) < 0.57)
    r = sf.regularize(s, grid).values
    scale = float(np.max(np.abs(s)))
    assert np.max(np.abs(r - longdouble_regularize(s, grid))) <= 2e-11 * scale


# ------------------------------------------------------------------ frame choice

def reference_frame_indices(times, spacing):
    wanted = np.arange(0.0, times[-1] + spacing / 2, spacing)
    return sorted({int(np.argmin(np.abs(times - t))) for t in wanted})


@settings(max_examples=300)
@given(
    st.integers(1, 400),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.3]),
)
def test_frame_indices_match_argmin_scan(steps, h, last, ratio):
    """Time grids as integrate builds them, with an uneven last step; spacings
    at whole and half multiples of h put wanted times exactly between two."""
    times = np.arange(steps + 1) * h
    if last > 0.0:
        times = np.append(times, times[-1] + last * h)
    spacing = ratio * h
    assert _frame_indices(times, spacing) == reference_frame_indices(times, spacing)


def test_frame_indices_tie_takes_the_lower_index():
    times = np.array([0.0, 0.5, 1.0])
    assert _frame_indices(times, 0.25) == reference_frame_indices(times, 0.25) == [0, 1, 2]
    assert _frame_indices(np.array([0.0]), 0.1) == [0]


# --------------------------------------------------------------- table writers

def reference_fmt(x) -> str:
    return "%.17g" % float(x)


def reference_write_trajectory_csv(traj, path):
    n = traj.grid.n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "residual", "regularized"] + [f"v{i}" for i in range(n)])
        for k in range(len(traj)):
            w.writerow(
                [reference_fmt(traj.times[k]), reference_fmt(traj.residuals[k]),
                 int(traj.regularized[k])]
                + [reference_fmt(v) for v in traj.states[k]]
            )


def reference_write_values_csv(times, rows, path):
    rows = [np.asarray(getattr(r, "values", r), dtype=float) for r in rows]
    n = len(rows[0]) if rows else 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"v{i}" for i in range(n)])
        for t, r in zip(times, rows):
            w.writerow([reference_fmt(t)] + [reference_fmt(v) for v in r])


def reference_support_profiles(frames, angles, path, title=""):
    frames = [(t, np.asarray(getattr(v, "values", v), dtype=float)) for t, v in frames]
    width, height = 560, 340
    margin = svg.MARGIN
    plot_w, plot_h = width - 2 * margin - 40, height - 2 * margin - 20
    x0, y0 = margin + 40, margin + 10
    vmin = min(float(v.min()) for _, v in frames)
    vmax = max(float(v.max()) for _, v in frames)
    if vmax - vmin < 1e-12:
        vmax = vmin + 1.0
    amax = float(angles[-1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{title}</text>'
        )
    if vmin < 0 < vmax:
        yz = y0 + plot_h - (0 - vmin) / (vmax - vmin) * plot_h
        parts.append(
            f'<line x1="{x0}" y1="{yz:.1f}" x2="{x0 + plot_w}" y2="{yz:.1f}" '
            f'stroke="#eeeeee"/>'
        )
    for i, (t, vals) in enumerate(frames):
        coords = " ".join(
            f"{x0 + a / amax * plot_w:.2f},"
            f"{y0 + plot_h - (v - vmin) / (vmax - vmin) * plot_h:.2f}"
            for a, v in zip(angles, vals)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{svg._color(i, len(frames))}" stroke-width="1.2"/>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.1f}" y="{height - 6}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">direction angle</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.5e-310, 1e300, -1e300, 0.1, 1 / 3, 2.0**53 + 2, -123456.789,
]
csv_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


def as_time_values(times, kind):
    """Times as the numpy scalars of an array, or as Python floats."""
    return list(times) if kind == "numpy" else times.tolist()


def as_rows(values, kind):
    if kind == "array" or values.shape[1] < 3:
        return list(values)
    grid = sf.DirectionGrid(values.shape[1])
    cls = sf.SupportSample if kind == "sample" else sf.SupportDelta
    return [cls._checked(grid, v) for v in values]  # built untested: the rows may hold NaN, inf


@settings(max_examples=150)
@given(st.data(), st.integers(3, 64), st.integers(1, 5))
def test_trajectory_csv_matches_csv_writer_byte_for_byte(tmp_path_factory, data, n, m):
    traj = sf.Trajectory(
        sf.DirectionGrid(n),
        data.draw(hnp.arrays(np.float64, m, elements=csv_floats)),
        data.draw(hnp.arrays(np.float64, (m, n), elements=csv_floats)),
        data.draw(hnp.arrays(np.float64, m, elements=csv_floats)),
        data.draw(hnp.arrays(np.bool_, m)),
    )
    out = tmp_path_factory.mktemp("traj")
    formats.write_trajectory_csv(traj, out / "new.csv")
    reference_write_trajectory_csv(traj, out / "ref.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(max_examples=200)
@given(
    st.data(),
    st.integers(1, 64),
    st.integers(0, 5),
    st.sampled_from(["numpy", "float"]),
    st.sampled_from(["array", "sample", "delta"]),
)
def test_values_csv_matches_csv_writer_byte_for_byte(tmp_path_factory, data, n, m, tkind, rkind):
    times = data.draw(hnp.arrays(np.float64, m, elements=csv_floats))
    values = data.draw(hnp.arrays(np.float64, (m, n), elements=csv_floats))
    out = tmp_path_factory.mktemp("values")
    # the "sample" rows check their cone margins, which overflow near 1e308
    with np.errstate(all="ignore"):
        for write, name in ((formats.write_values_csv, "new"), (reference_write_values_csv, "ref")):
            write(as_time_values(times, tkind), as_rows(values, rkind), out / f"{name}.csv")
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()


@settings(max_examples=150)
@given(st.data(), st.integers(3, 64), st.integers(1, 5))
def test_support_profiles_match_point_loop(tmp_path_factory, data, n, m):
    grid = sf.DirectionGrid(n)
    times = np.arange(m) * 0.25
    values = data.draw(hnp.arrays(np.float64, (m, n), elements=csv_floats))
    frames = list(zip(times, values))
    out = tmp_path_factory.mktemp("svg")
    with np.errstate(all="ignore"):
        svg.support_profiles(frames, grid.angles, out / "new.svg", title="t")
        reference_support_profiles(frames, grid.angles, out / "ref.svg", title="t")
    assert (out / "new.svg").read_bytes() == (out / "ref.svg").read_bytes()


def test_trajectory_csv_streams_its_rows(tmp_path):
    """2,001 x 1,024 floats are about 45 MB of text; the writer holds a few rows."""
    m, n = 2001, 1024
    rng = np.random.default_rng(5)
    traj = sf.Trajectory(
        sf.DirectionGrid(n),
        np.linspace(0.0, 20.0, m),
        rng.normal(size=(m, n)),
        rng.uniform(0.0, 1e-9, m),
        rng.random(m) < 0.5,
    )
    tracemalloc.start()
    try:
        formats.write_trajectory_csv(traj, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 40_000_000
    assert peak < 2_000_000


# ------------------------------------------------------ stacked integration

def caught(fn, *args):
    """fn(*args), or the setflow error it raised."""
    try:
        return fn(*args)
    except sf.SetflowError as exc:
        return exc


def reference_integrate(f, sigma0, T, h, method="rk4", policy="on_violation"):
    """The single-set loop with list storage that integrate_stack replaced."""
    step = dynamics._euler_step if method == "euler" else dynamics._rk4_step
    grid = f.grid
    n_full = int(math.floor(T / h + 1e-9))
    times = [k * h for k in range(n_full + 1)]
    if T - times[-1] > 1e-9 * max(1.0, T):
        times.append(T)
    else:
        times[-1] = T

    def residual(y):
        return max(0.0, -float(sf.cone_margins(y, grid).min()))

    y = sigma0.values.copy()
    ts, states, residuals, regularized = [0.0], [y.copy()], [residual(y)], [False]
    failure = None
    for k in range(1, len(times)):
        t_prev, t_next = times[k - 1], times[k]
        y_new = step(f, t_prev, y, t_next - t_prev)
        if not np.all(np.isfinite(y_new)):
            raise sf.NonFiniteValue(f"non-finite state at t = {t_next} under field '{f.name}'")
        res = residual(y_new)
        did_reg = False
        limit = 10.0 * default_tol(y_new)
        if policy == "always" or (policy == "on_violation" and res > limit):
            try:
                y_new = sf.regularize(y_new, grid).values.copy()
                did_reg = True
            except sf.EmptyIntersection:
                failure = f"empty halfplane intersection at t = {t_next}"
                break
        ts.append(t_next)
        states.append(y_new.copy())
        residuals.append(res)
        regularized.append(did_reg)
        y = y_new
    return sf.Trajectory(
        grid, np.asarray(ts), np.asarray(states), np.asarray(residuals),
        np.asarray(regularized, dtype=bool), failure,
    )


def reference_curve(traj):
    """The per-sample curve: one validated SupportSample per stored state."""
    return [traj.sample(k) for k in range(len(traj))]


def assert_same_trajectory(got, ref):
    for name in ("times", "states", "residuals"):
        assert np.array_equal(bits(getattr(got, name)), bits(getattr(ref, name))), name
    assert np.array_equal(got.regularized, ref.regularized)
    assert got.regularized.dtype == bool and got.times.dtype == np.float64
    assert (got.completed, got.failure) == (ref.completed, ref.failure)


@st.composite
def stack_cases(draw):
    """A field, 1-4 initial sets of mixed sizes, a method, a policy and a time grid.

    The "shrink" field subtracts the same amount from every support value:
    it leaves the cone on every step, and a set smaller than what it has
    eroded so far empties, so small rows truncate while large ones finish.
    The "creep" field dents one support value by 0.2-1.2 drift limits per
    step, so clean runs of varying length each end in a repair, and the
    "blowup" field expands fast enough to overflow after a few steps; both
    run 64-150 steps, so an event can fall deep inside a checked block.
    """
    n = draw(st.sampled_from([8, 16, 33, 64]))
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["relax_to", "expand", "constant", "shrink", "dent", "creep",
                                 "blowup"]))
    if kind == "relax_to":
        field = sf.relax_to(sf.random_cone_sample(grid, rng))
    elif kind == "expand":
        field = sf.expansion_field(grid, draw(st.floats(-2.0, 2.0)))
    elif kind == "constant":
        field = sf.constant_field(sf.SupportDelta(grid, rng.normal(size=n)))
    elif kind == "shrink":
        field = sf.constant_field(sf.SupportDelta(grid, np.full(n, -draw(st.floats(0.5, 3.0)))))
    elif kind == "blowup":
        field = sf.expansion_field(grid, 10.0 ** draw(st.floats(10.0, 60.0)))
    elif kind == "dent":
        dent = np.zeros(n)
        dent[rng.integers(n)] = -draw(st.floats(0.1, 2.0))
        field = sf.constant_field(sf.SupportDelta(grid, dent))
    sizes = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.05, 3.0), min_size=1, max_size=4))
    # size 0: the point at the origin, whose margins are all exactly zero
    origin = sf.SupportSample(grid, np.zeros(n))
    sigmas = [r / 1.5 * sf.random_cone_sample(grid, rng) if r else origin for r in sizes]
    h = draw(st.floats(0.01, 0.3))
    T = h * draw(st.floats(0.5, 30.0))
    if kind == "creep":  # h times the dent is a share of the drift limit at scale 1
        dent = np.zeros(n)
        dent[rng.integers(n)] = -draw(st.floats(0.2, 1.2)) * 10.0 * TOL_REL / h
        field = sf.constant_field(sf.SupportDelta(grid, dent))
    if kind in ("creep", "blowup"):
        T = h * draw(st.floats(64.0, 150.0))
    method = draw(st.sampled_from(["euler", "rk4"]))
    policy = draw(st.sampled_from(["never", "on_violation", "always"]))
    return field, sigmas, T, h, method, policy


@settings(max_examples=300)
@given(stack_cases())
def test_stacked_integration_matches_per_set_loop_bit_for_bit(case):
    field, sigmas, T, h, method, policy = case
    args = (T, h, method, policy)
    with np.errstate(over="ignore", invalid="ignore"):  # "blowup" overflows on purpose
        refs = [caught(reference_integrate, field, s, *args) for s in sigmas]
    got = caught(sf.integrate_stack, field, sigmas, *args)
    raised = [str(r) for r in refs if isinstance(r, sf.NonFiniteValue)]
    if raised:
        # the first row that goes non-finite while it is still in the stack stops all
        assert isinstance(got, sf.NonFiniteValue)
        assert str(got) == min(raised, key=lambda m: float(m.split("t = ")[1].split()[0]))
        return
    assert len(got) == len(sigmas)
    for traj, ref, sigma in zip(got, refs, sigmas):
        assert traj.completed == (traj.failure is None)
        assert_same_trajectory(traj, ref)
        assert_same_trajectory(sf.integrate(field, sigma, *args), ref)


def test_a_truncating_row_stops_alone():
    grid = sf.DirectionGrid(64)
    shrink = sf.constant_field(sf.SupportDelta(grid, np.full(64, -1.0)))
    small, large = (sf.support_of_polygon(sf.ConvexPolygon.box((-r, r), (-r, r)), grid)
                    for r in (0.2, 3.0))
    for method in ("euler", "rk4"):
        got = sf.integrate_stack(shrink, [small, large, small], 1.0, 0.05, method)
        for traj, sigma in zip(got, (small, large, small)):
            assert_same_trajectory(traj, reference_integrate(shrink, sigma, 1.0, 0.05, method))
        assert [t.completed for t in got] == [False, True, False]
        assert got[0].failure.startswith("empty halfplane intersection at t = ")
        assert len(got[0]) < len(got[1]) == 21


def test_a_dropped_row_cannot_raise_non_finite():
    """The field is NaN on a row with a negative width, as a raw state past
    emptiness has; a truncated row must not be checked again."""
    grid = sf.DirectionGrid(16)

    def fn(t, y):
        widths = y + np.roll(y, -8, axis=-1)
        return np.where(widths.min(axis=-1, keepdims=True) < -1e-9, np.nan, -np.ones_like(y))

    field = sf.RhsField(grid, fn, name="nan_on_negative_width")
    small, large = (sf.support_of_polygon(sf.ConvexPolygon.box((-r, r), (-r, r)), grid)
                    for r in (0.45, 9.0))
    small_traj, large_traj = sf.integrate_stack(field, [small, large], 1.0, 0.1, "euler")
    assert not small_traj.completed and large_traj.completed
    with pytest.raises(sf.NonFiniteValue):
        reference_integrate(field, small, 1.0, 0.1, "euler", "never")


def test_a_truncated_row_steps_on_unchecked(monkeypatch):
    """Row 1 empties after a few steps; its raw state, still stepped with the
    stack, then overflows to inf or NaN.  Rows 0 and 2 finish, and row 1 is
    neither checked for finiteness nor repaired past its end.  The field blows
    up only below a width of -0.5: a kept state has width >= 0 and each step
    takes at most 2h = 0.1 from it, so the per-set loop never gets there."""
    grid = sf.DirectionGrid(16)
    seen_non_finite = []

    def fn(t, y):
        seen_non_finite.append(not np.isfinite(y).all())
        widths = y + np.roll(y, -8, axis=-1)
        return np.where(widths.min(axis=-1, keepdims=True) < -0.5, 1e200 * y, -np.ones_like(y))

    field = sf.RhsField(grid, fn, name="blowup_past_emptiness")
    small, large = (sf.support_of_polygon(sf.ConvexPolygon.box((-r, r), (-r, r)), grid)
                    for r in (0.2, 3.0))
    sigmas = (large, small, 1.5 * large)
    calls = []

    def counting(values, grid):
        calls.append(np.isfinite(values).all())
        return support.regularize(values, grid)

    monkeypatch.setattr(dynamics, "regularize", counting)
    for method in ("euler", "rk4"):
        for policy in ("on_violation", "always"):
            seen_non_finite.clear()
            calls.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                refs = [reference_integrate(field, s, 1.0, 0.05, method, policy) for s in sigmas]
            got = sf.integrate_stack(field, sigmas, 1.0, 0.05, method, policy)
            assert any(seen_non_finite)
            for traj, ref in zip(got, refs):
                assert_same_trajectory(traj, ref)
            assert [t.completed for t in got] == [True, False, True]
            # the failure names the time of the first step row 1 did not keep
            assert got[1].failure == (
                f"empty halfplane intersection at t = {got[0].times[len(got[1])].tolist()}"
            )
            # one call per kept repair, and the one that found row 1 empty
            assert len(calls) == sum(int(t.regularized.sum()) for t in got) + 1
            assert all(calls)


def test_drift_limit_is_per_row():
    """Row 0 (scale 1) starts 2e-8 outside the cone, above its own limit
    10 * default_tol = 1e-8 but below the 7.1e-8 of row 1 (scale 7.1)."""
    grid = sf.DirectionGrid(16)
    square = sf.support_of_polygon(sf.ConvexPolygon.box((-0.5, 0.5), (-0.5, 0.5)), grid).values
    dented = square.copy()
    dented[3] -= 2e-8  # its neighbours' margins were zero: u_2..u_4 meet one corner
    assert 1e-8 < sf.cone_residual(dented, grid) < 5e-8
    rows = [sf.SupportSample(grid, dented, tol=1e-7), sf.SupportSample(grid, 10.0 * square)]
    zero = sf.constant_field(sf.SupportDelta(grid, np.zeros(16)))
    got = sf.integrate_stack(zero, rows, 0.2, 0.1, "euler")
    for traj, sigma in zip(got, rows):
        assert_same_trajectory(traj, reference_integrate(zero, sigma, 0.2, 0.1, "euler"))
    assert got[0].regularized[1] and not got[1].regularized.any()


def test_residual_of_the_origin_is_positive_zero():
    grid = sf.DirectionGrid(8)
    assert bits(sf.cone_residual(np.zeros(8), grid)) == bits(0.0)
    assert np.array_equal(bits(sf.cone_residual(np.zeros((2, 8)), grid)), bits([0.0, 0.0]))


def test_constant_field_broadcasts_over_a_stack():
    grid = sf.DirectionGrid(16)
    delta = np.linspace(-1.0, 1.0, 16)
    field = sf.constant_field(sf.SupportDelta(grid, delta))
    out = field.eval(0.0, np.zeros((3, 16)))
    assert out.shape == (3, 16) and np.array_equal(out, np.tile(delta, (3, 1)))
    assert field.eval(0.0, np.zeros(16)).shape == (16,)
    with pytest.raises(sf.GridMismatch):
        sf.RhsField(grid, lambda t, y: np.zeros(15)).eval(0.0, np.zeros((2, 16)))


@settings(max_examples=200)
@given(stack_cases())
def test_curve_matches_per_sample_validation(case):
    """One stacked cone test at each state's drift limit accepts and rejects
    exactly what the per-state SupportSample constructions did, and reports
    the same violation."""
    field, sigmas, T, h, method, policy = case
    traj = caught(sf.integrate, field, sigmas[0], *case[2:])
    if isinstance(traj, Exception) or len(traj) < 2:
        return
    ref = caught(reference_curve, traj)
    got = caught(traj.curve)
    if isinstance(ref, sf.NotInCone):
        assert isinstance(got, sf.NotInCone)
        assert (got.index, bits(got.margin), bits(got.tol)) == (
            ref.index, bits(ref.margin), bits(ref.tol)
        )
        return
    assert np.array_equal(bits(got.values), bits([s.values for s in ref]))
    assert all(np.array_equal(bits(a.values), bits(b.values)) for a, b in zip(got.samples, ref))
    back = sf.time_reverse(got)
    assert np.array_equal(bits(back.values), bits(got.values[::-1]))


# ------------------------------------------------------- horizon and duality

def reference_horizon_bound(f, sigma0, r, T, budget, time_samples, seed):
    states = [sigma0.values, sigma0.values + r]
    states.extend(sf.ball_draws(sigma0, r, budget, np.random.default_rng(seed)))
    c = 0.0
    for t in np.linspace(0.0, T, time_samples):
        for y in states:
            c = max(c, float(np.max(np.abs(f.eval(float(t), y)))))
    return c


@pytest.mark.parametrize("kind", ["relax_to", "expand", "constant", "nan_rows"])
def test_horizon_bound_matches_per_state_loop(kind):
    grid = sf.DirectionGrid(32)
    rng = np.random.default_rng(11)
    sigma0 = sf.random_cone_sample(grid, rng)
    field = {
        "relax_to": sf.relax_to(sf.random_cone_sample(grid, rng)),
        "expand": sf.expansion_field(grid, -1.7),
        "constant": sf.constant_field(sf.SupportDelta(grid, rng.normal(size=32))),
        # NaN on the states above sigma0 + 0.5: a field value the bound cannot skip
        "nan_rows": sf.RhsField(
            grid, lambda t, y: np.where(y > sigma0.values + 0.5, np.nan, t - y)
        ),
    }[kind]
    for seed in range(4):
        if kind == "nan_rows":
            with pytest.raises(sf.NonFiniteValue, match="field 'field'"):
                sf.existence_horizon(field, sigma0, 0.8, 2.0, budget=24, seed=seed)
            continue
        c, _ = sf.existence_horizon(field, sigma0, 0.8, 2.0, budget=24, seed=seed)
        ref = reference_horizon_bound(field, sigma0, 0.8, 2.0, 24, 9, seed)
        assert bits(c) == bits(ref)


def reference_semi_inner(f, g):
    pos, neg = sf.extremal_sets(g)
    tol = default_tol(g.values)
    gnorm = float(np.max(np.abs(g.values)))
    if gnorm <= tol:
        return 0.0
    mpos = float(np.min(f.values[list(pos)])) if pos else math.inf
    mneg = float(np.min(-f.values[list(neg)])) if neg else math.inf
    return gnorm * min(mpos, mneg)


def reference_representatives(g):
    tol = default_tol(g.values)
    gnorm = float(np.max(np.abs(g.values)))
    if gnorm <= tol:
        return None
    pos, neg = sf.extremal_sets(g)
    return [((i, gnorm),) for i in pos] + [((i, -gnorm),) for i in neg]


# ties at the extremes and values within a tolerance of them are the cases that matter
delta_entries = st.sampled_from([-2.0, -1.0, 0.0, 1e-10, 1.0, 2.0]) | st.floats(-3, 3)
delta_pairs = st.integers(3, 40).flatmap(
    lambda n: st.tuples(*[hnp.arrays(np.float64, n, elements=delta_entries)] * 2)
)


@settings(max_examples=300)
@given(delta_pairs)
def test_duality_matches_two_pass_reference(fg):
    fv, gv = fg
    grid = sf.DirectionGrid(len(fv))
    f, g = sf.SupportDelta(grid, fv), sf.SupportDelta(grid, gv)
    assert bits(sf.semi_inner(f, g)) == bits(reference_semi_inner(f, g))
    ref = reference_representatives(g)
    got = caught(sf.dual_representatives, g)
    if ref is None:
        assert isinstance(got, sf.ZeroFunction)
    else:
        assert [mu.atoms for mu in got] == ref
