import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow import support

G64 = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
A1 = sf.ConvexPolygon.box((2, 3), (1, 2))
A2 = sf.ConvexPolygon.box((0, 3.5), (-1.5, 2.5))
A3 = sf.ConvexPolygon.box((-1.5, 3.5), (-0.5, 0))


def sup(poly, grid=G64):
    return sf.support_of_polygon(poly, grid)


def minkowski_vertices(p, q):
    """Vertex-convolution Minkowski sum oracle: hull of pairwise vertex sums."""
    sums = [a + b for a in p.vertices for b in q.vertices]
    return sf.ConvexPolygon.from_points(np.array(sums))


# ----------------------------------------------------------------- direction grid

def test_grid_basics():
    g = sf.DirectionGrid(8)
    assert g.delta == pytest.approx(math.pi / 4)
    assert np.allclose(np.hypot(g.directions[:, 0], g.directions[:, 1]), 1.0)
    assert g.antipode(1) == 5
    idx, err = g.nearest_index((0.0, -1.0))
    assert idx == 6 and err < 1e-12


@pytest.mark.parametrize("n", [3, 4, 64, 4096])
def test_grid_columns_are_read_only_contiguous_rows_of_the_directions(n):
    grid = sf.DirectionGrid(n)
    turned = np.concatenate([grid.directions[1:], grid.directions[:1]])  # row i: direction i + 1
    rows = (*grid.columns[:, :-1], *grid.columns[:, 1:])
    wanted = (grid.directions[:, 0], grid.directions[:, 1], turned[:, 0], turned[:, 1])
    for row, want in zip(rows, wanted):
        assert row.flags.c_contiguous and not row.flags.writeable
        assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
    assert grid.directions.flags.c_contiguous and not grid.directions.flags.writeable
    assert np.array_equal(grid.directions[:, 0], np.cos(grid.angles))


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        sf.DirectionGrid(2)


@pytest.mark.parametrize("n", [3.5, 8.0])
def test_grid_rejects_a_non_integral_size(n):
    # 3.5 built 4 directions 2 pi / 3.5 apart; 8.0 failed later, in support_of_polygon
    with pytest.raises(TypeError):
        sf.DirectionGrid(n)


def test_grid_takes_a_numpy_integer_as_an_int():
    grid = sf.DirectionGrid(np.int64(8))
    assert type(grid.n) is int and grid == sf.DirectionGrid(8)


def test_odd_grid_has_no_antipode():
    g = sf.DirectionGrid(5)
    with pytest.raises(ValueError):
        g.antipode(0)


# -------------------------------------------------------------- support_of_polygon

def test_support_square_axis():
    assert sup(Q).values[0] == pytest.approx(1.0)


def test_small_triangle_keeps_its_vertices():
    # collinearity is a distance from the chord: legs of 1e-5 are far above 1e-12
    tri = sf.ConvexPolygon.from_points([[0.0, 0.0], [1e-5, 0.0], [0.0, 1e-5]])
    assert len(tri) == 3


def test_support_single_point_origin():
    p = sf.ConvexPolygon.point((0.0, 0.0))
    assert np.all(sup(p).values == 0.0)


def test_support_rect_up_direction():
    # support of [2,3]x[1,2] in +y is the top edge height
    assert sup(A1).values[16] == pytest.approx(2.0)


@settings(max_examples=400)
@given(st.sampled_from([3, 8, 64, 257, 1024, 4096]), st.integers(1, 60), st.integers(1, 9),
       st.sampled_from(["round", "cloud", "lattice"]), st.integers(0, 2**32 - 1))
@example(4096, 1, 1, "round", 0)  # one vertex: the matrix-vector product
@example(1024, 1, 9, "lattice", 3)
@example(4096, 3, 2, "round", 1)  # blocks of 2 over 3 vertices: the last one overlaps
@example(1024, 10, 9, "round", 2)
@example(4096, 18, 9, "round", 3)  # two whole blocks, no overlap
def test_blocked_support_values_have_the_bits_of_the_whole_product(n, m, block, kind, seed):
    # blocks of max(2, block) vertices; the last one overlaps rather than hold one vertex
    grid, rng = sf.DirectionGrid(n), np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7)
    if kind == "round":  # every point a vertex
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        pts = np.column_stack([np.cos(theta), 0.5 * np.sin(theta)]) + rng.uniform(-2, 2, 2)
    elif kind == "cloud":
        pts = rng.standard_normal((m, 2))
    else:  # exact and signed zeros, repeated coordinates
        pts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], size=(m, 2))
    p = sf.ConvexPolygon.from_points(scale * pts)
    whole = (grid.directions @ p.vertices.T).max(axis=1)
    with mock.patch.object(support, "_PRODUCT_FLOATS", block * n):
        got = sf.support_of_polygon(p, grid).values
    assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


def test_support_of_polygon_memory_is_bounded():
    # the whole 65536 x 4096 product of directions and vertices would ask for 2 GiB
    grid = sf.DirectionGrid(65536)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    p = sf.ConvexPolygon.from_points(np.column_stack([2.0 * np.cos(theta), np.sin(theta)]))
    assert len(p) == 4096
    tracemalloc.start()
    try:
        s = sf.support_of_polygon(p, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    u = grid.directions  # the ellipse's own support, up to the chords of the polygon
    assert np.allclose(s.values, np.hypot(2.0 * u[:, 0], u[:, 1]), rtol=0.0, atol=1e-6)


def test_support_samples_pass_cone_check():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (7, 2)))
        s = sup(p)
        assert np.all(sf.cone_margins(s.values, G64) >= -1e-12)


# ------------------------------------------------------------------------- cone

def test_zero_vector_in_cone():
    assert sf.is_in_cone(np.zeros(64), G64) is np.True_
    assert np.all(sf.cone_margins(np.zeros(64), G64) >= 0.0)


def test_wide_difference_violates_cone():
    # Q minus a rectangle of width 5 cannot be a support sample
    d = sup(Q).values - sup(A3).values
    assert sf.is_in_cone(d, G64) is np.False_
    assert np.min(sf.cone_margins(d, G64)) < 0


def test_first_violating_index_is_smallest():
    vals = np.zeros(64)
    vals[10] = -1.0  # dent violates at indices 9 and 11
    assert not sf.is_in_cone(vals, G64)
    assert np.flatnonzero(sf.cone_margins(vals, G64) < -1e-12)[0] == 9


def test_length_mismatch_raises():
    with pytest.raises(sf.GridMismatch):
        sf.is_in_cone(np.zeros(10), G64)


def test_sample_constructor_validates():
    vals = np.zeros(64)
    vals[3] = 2.0
    with pytest.raises(sf.NotInCone):
        sf.SupportSample(G64, vals)


def test_sample_outside_the_cone_is_refused_when_its_margins_overflow():
    # inf - inf made margin 0 NaN, and the NaN margin passed the cone test
    grid = sf.DirectionGrid(8)
    vals = np.array([1.7e308, 1e308, 0, 0, 0, 0, 0, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sf.NotInCone) as err:
            sf.SupportSample(grid, vals)
        margin = sf.cone_margins(vals, grid)[0]
        assert not sf.is_in_cone(vals, grid) and sf.cone_residual(vals, grid) == -margin
    assert err.value.index == 0 and f"{err.value.margin:.4e}" == "-4.0416e+307"
    assert margin == err.value.margin == 2.0**1000 * sf.cone_margins(vals * 2.0**-1000, grid)[0]


def test_huge_valid_sets_stay_samples():
    # margins that overflow are exact again, so near the top of the float range a box is a
    # sample and a point that moves out and back is a curve of both types
    grid = sf.DirectionGrid(16)
    box = sf.ConvexPolygon.box((-0.9e308, 0.9e308), (-0.9e308, 0.9e308))
    p = sf.support_of_polygon(sf.ConvexPolygon.point((1e298, 0.0)), grid).values
    s = sf.support_of_polygon(box, grid)
    curve = sf.SetCurve(grid, [0.0, 1e-10, 2e-10], [np.zeros(16), p, np.zeros(16)])
    assert sf.is_in_cone(s.values, grid)
    assert sf.classify_curve(curve)[0] is sf.HukuharaClass.BOTH


@pytest.mark.parametrize("n", [3, 4, 8])
def test_residual_of_a_non_finite_row_is_nan(n):
    # every margin of [inf, 0, 0] is +inf at n = 3, so its residual read 0.0, as if in the cone
    grid = sf.DirectionGrid(n)
    finite = sup(Q, grid).values - np.arange(n) % 2  # outside the cone at n = 3 and 8
    rows = np.array([finite, *(np.where(np.arange(n) == 0, bad, 0.0)
                               for bad in (math.inf, -math.inf, math.nan))])
    got = sf.cone_residual(rows, grid)
    assert got[0] == sf.cone_residual(finite, grid) and np.isnan(got[1:]).all()
    assert np.isnan(sf.cone_residual(rows[1], grid)) and not sf.is_in_cone(rows[1], grid).any()
    worst = -sf.cone_margins(finite, grid).min()  # a finite row keeps the bits it had
    assert np.float64(got[0]).tobytes() == np.float64(0.0 if worst <= 0.0 else worst).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_rejects_a_non_finite_entry(bad):
    # NaN margins pass the cone test, so a NaN vector was a sample; an infinite
    # entry passed too, with a RuntimeWarning from inf - inf in cone_margins
    one = sup(Q).values.copy()
    one[5] = bad
    for vals in (one, np.full(64, bad)):
        for tol in (None, 1e-3):
            with pytest.raises(sf.NonFiniteValue):
                sf.SupportSample(G64, vals, tol=tol)


@pytest.mark.filterwarnings("error")
def test_infinite_tolerance_admits_without_margins():
    # the margins of 1e308 entries overflowed (RuntimeWarning) although inf admits them
    vals = np.full(8, 1e308)
    vals[3] = -1e308  # far outside the cone
    s = sf.SupportSample(sf.DirectionGrid(8), vals, tol=math.inf)
    assert np.array_equal(s.values, vals)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_infinite_tolerance_still_rejects_a_non_finite_entry(bad):
    # an infinite tol skipped every test, the finiteness check included
    vals = sup(Q).values.copy()
    vals[5] = bad
    with pytest.raises(sf.NonFiniteValue):
        sf.SupportSample(G64, vals, tol=math.inf)
    with pytest.raises(sf.NonFiniteValue):
        sf.SetCurve(G64, [0.0, 1.0, 2.0], [sup(Q).values, vals, sup(Q).values], tol=math.inf)


# ------------------------------------------------------------------ reconstruction

def test_reconstruct_square_round_trip():
    r = sf.reconstruct_polygon(sup(Q))
    assert len(r) == 4
    assert sf.hausdorff_exact(r, Q) < 1e-12


def test_reconstruct_zero_is_origin():
    r = sf.reconstruct_polygon(sf.SupportSample(G64, np.zeros(64)))
    assert len(r) == 1
    assert np.allclose(r.vertices[0], 0.0)


def test_reconstruct_error_of_offgrid_polygons():
    # outer reconstruction error at n = 256, empirical constant frozen
    g = sf.DirectionGrid(256)
    rng = np.random.default_rng(42)
    bound = 40.0 * g.delta ** 2
    for _ in range(50):
        p = sf.ConvexPolygon.from_points(rng.uniform(-1.5, 1.5, (5, 2)))
        r = sf.reconstruct_polygon(sf.support_of_polygon(p, g))
        assert sf.hausdorff_exact(p, r) <= bound


def test_round_trip_grid_aligned_polygons():
    # polygons whose edge normals are grid directions reproduce exactly;
    # all-positive raw values keep the origin inside, so never empty
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.uniform(0.5, 1.5, 64)
        s = sf.regularize(raw, G64)
        p = sf.reconstruct_polygon(s)
        back = sf.reconstruct_polygon(sf.support_of_polygon(p, G64))
        assert sf.hausdorff_exact(p, back) < 1e-9


def test_reconstruct_segment():
    seg = sf.ConvexPolygon.from_points([[-1, 0], [1, 0]])
    r = sf.reconstruct_polygon(sup(seg))
    assert len(r) == 2
    assert sf.hausdorff_exact(seg, r) < 1e-12


# --------------------------------------------------------------------- regularize

def test_regularize_cone_input_unchanged():
    s = sup(Q)
    r = sf.regularize(s.values, G64)
    assert np.array_equal(r.values, s.values)


def test_regularize_passes_a_cone_vector_through_as_a_read_only_copy():
    # the pass-through computes the margins once: the sample constructor ran them again
    s = sup(A2).values.copy()
    with mock.patch.object(support, "cone_margins", wraps=support.cone_margins) as spy:
        r = sf.regularize(s, G64)
    assert spy.call_count == 1
    assert type(r) is sf.SupportSample and not r.values.flags.writeable
    assert not np.shares_memory(r.values, s)
    assert np.array_equal(r.values.view(np.uint64), s.view(np.uint64))


def test_regularize_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        raw = rng.uniform(0.2, 1.5, 64)
        r1 = sf.regularize(raw, G64)
        r2 = sf.regularize(r1.values, G64)
        assert np.max(np.abs(r2.values - r1.values)) < 1e-12


def test_regularize_matches_vertex_candidate_oracle():
    # raised value at direction (1,0): the intersection bulges past the square
    # edge up to the neighbouring constraints, so the support at that
    # direction drops to 1 + tan(delta), not back to 1
    s = sup(Q).values.copy()
    s[0] += 0.5
    r = sf.regularize(s, G64)
    u = G64.directions
    cands = []
    for i, j in itertools.combinations(range(64), 2):
        a = np.array([u[i], u[j]])
        det = np.linalg.det(a)
        if abs(det) < 1e-12:
            continue
        x = np.linalg.solve(a, np.array([s[i], s[j]]))
        if np.all(u @ x <= s + 1e-9):
            cands.append(x)
    oracle = (u @ np.array(cands).T).max(axis=1)
    assert np.max(np.abs(r.values - oracle)) < 1e-9
    assert r.values[0] == pytest.approx(1.0 + math.tan(G64.delta))
    assert np.all(r.values <= s + 1e-12)


def test_regularize_empty_intersection():
    s = sup(Q).values.copy()
    s[0] = -s[32] - 1.0
    with pytest.raises(sf.EmptyIntersection):
        sf.regularize(s, G64)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("fn", [sf.regularize, sf.halfplane_intersection])
def test_regularize_rejects_non_finite(fn, bad):
    # +inf made every tolerance infinite, so the vector passed the cone test
    # unchanged; NaN ended in a misleading EmptyIntersection
    s = sup(Q).values.copy()
    s[5] = bad
    with pytest.raises(sf.NonFiniteValue):
        fn(s, G64)


# ----------------------------------------------------------------------- algebra

huge = st.sampled_from([-1e308, 1e308]) | st.floats(-1e308, 1e308)  # the ends overflow


@st.composite
def huge_operands(draw):
    """Two deltas on 3, 8 or 64 directions, or two box samples on 4, with entries up to
    +-1e308, and a scalar up to 1e308 in size (nonnegative for samples).  On 4 directions the
    margins of a box [x0, x1] x [y0, y1], values (x1, y1, -x0, -y0), are its widths up to a
    1e-16 relative term, so no sum or scaling of them leaves the cone."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([3, 8, 64]))
        rows = [draw(st.lists(huge, min_size=n, max_size=n)) for _ in range(2)]
        return sf.DirectionGrid(n), rows, draw(huge), sf.SupportDelta
    rows = []
    for _ in range(2):
        (x0, x1), (y0, y1) = (sorted(draw(st.lists(huge, min_size=2, max_size=2))) for _ in "xy")
        rows.append([x1, y1, -x0, -y0])
    return sf.DirectionGrid(4), rows, draw(st.just(1e308) | st.floats(0.0, 1e308)), sf.SupportSample


@settings(max_examples=300)
@given(huge_operands())
def test_arithmetic_gives_finite_values_or_raises_non_finite(case):
    grid, rows, lam, cls = case
    with np.errstate(over="ignore"):  # the overflows under test; NonFiniteValue reports them
        a, b = (cls(grid, r) for r in rows)
        ops = [lambda: a + b, lambda: a - b, lambda: -a, lambda: lam * a]
        if cls is sf.SupportSample:
            ops.append(lambda: sf.hukuhara_difference(a, b))
        for op in ops:
            try:
                out = op()
            except sf.NonFiniteValue:
                continue
            assert out is None or np.isfinite(out.values).all()


def test_minkowski_unit_squares():
    b01 = sf.ConvexPolygon.box((0, 1), (0, 1))
    b02 = sf.ConvexPolygon.box((0, 2), (0, 2))
    assert np.allclose((sup(b01) + sup(b01)).values, sup(b02).values)


def test_minkowski_identity():
    zero = sf.SupportSample(G64, np.zeros(64))
    s = sup(A1)
    assert np.array_equal((s + zero).values, s.values)


def test_minkowski_matches_vertex_convolution():
    rng = np.random.default_rng(11)
    for _ in range(15):
        p = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2)))
        q = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (5, 2)))
        lhs = (sup(p) + sup(q)).values
        rhs = sup(minkowski_vertices(p, q)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, np.max(np.abs(rhs)))


def test_relaxation_combination_matches_set_level():
    # exp(-t) A0 + (1 - exp(-t)) Q at the set level equals the sample combination
    t = 0.7
    w = math.exp(-t)
    set_level = minkowski_vertices(
        sf.ConvexPolygon(w * A1.vertices), sf.ConvexPolygon((1 - w) * Q.vertices)
    )
    combo = w * sup(A1) + (1 - w) * sup(Q)
    assert np.max(np.abs(combo.values - sup(set_level).values)) < 1e-13


def test_scale_edge_cases():
    s = sup(Q)
    assert np.all((0.0 * s).values == 0.0)
    assert np.array_equal((1.0 * s).values, s.values)
    assert np.allclose((2.0 * s).values, sup(sf.ConvexPolygon.box((-2, 2), (-2, 2))).values)
    with pytest.raises(sf.NegativeScalar):
        -1.0 * s


def test_algebra_outputs_stay_in_cone():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = sup(sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2))))
        q = sup(sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2))))
        out = p + q
        assert sf.cone_residual(out.values, G64) < 1e-13 * max(1.0, out.norm_inf)
        out2 = float(rng.uniform(0, 3)) * p
        assert sf.cone_residual(out2.values, G64) < 1e-13 * max(1.0, out2.norm_inf + 1)


def test_sample_is_a_delta_and_the_algebra_keeps_the_cone_where_it_can():
    a, b = sup(A1), sup(Q)
    assert isinstance(a, sf.SupportDelta)
    total = a + b
    assert type(total) is sf.SupportSample
    assert np.array_equal(total.values, a.values + b.values)
    diff = a - b
    assert type(diff) is sf.SupportDelta
    assert np.array_equal(diff.values, a.values - b.values)
    for scaled in (2.5 * a, a * 2.5):
        assert type(scaled) is sf.SupportSample
        assert np.array_equal(scaled.values, 2.5 * a.values)
    with pytest.raises(sf.NegativeScalar):
        a * -1.0
    with pytest.raises(sf.NegativeScalar):
        -1.0 * a
    mixed = diff + b
    assert type(mixed) is sf.SupportDelta
    assert np.array_equal(mixed.values, diff.values + b.values)
    neg = -a
    assert type(neg) is sf.SupportDelta
    assert np.array_equal(neg.values, -a.values)


@pytest.mark.parametrize("n", [3, 8, 64, 257])
def test_operators_keep_the_type_of_the_left_operand_and_the_bits(n):
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(n)
    s, t = (sup(sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (5, 2))), grid) for _ in "st")
    d, e = sf.SupportDelta(grid, t.values), sf.SupportDelta(grid, rng.normal(size=n))
    sample, delta = sf.SupportSample, sf.SupportDelta
    cases = [
        (s + t, sample, s.values + t.values), (t + s, sample, t.values + s.values),
        (s + d, sample, s.values + d.values), (d + s, delta, d.values + s.values),
        (d + e, delta, d.values + e.values), (e + d, delta, e.values + d.values),
        (2.5 * s, sample, 2.5 * s.values), (s * 2.5, sample, 2.5 * s.values),
        (0.0 * s, sample, 0.0 * s.values), (-2.5 * e, delta, -2.5 * e.values),
        (e * -2.5, delta, -2.5 * e.values), (s - t, delta, s.values - t.values),
        (d - s, delta, d.values - s.values), (-s, delta, -s.values), (-e, delta, -e.values),
    ]
    for got, cls, values in cases:
        assert type(got) is cls and got.grid is grid
        assert got.values.tobytes() == values.tobytes()
    dent = np.zeros(n)
    dent[0] = -10.0 * (1.0 + s.norm_inf)  # lowers margin 1 (every margin at n = 3)
    with pytest.raises(sf.NotInCone):
        s + sf.SupportDelta(grid, dent)
    assert type(sf.SupportDelta(grid, dent) + s) is delta
    for lam in (-1.0, -1e-300):
        with pytest.raises(sf.NegativeScalar):
            s * lam
        with pytest.raises(sf.NegativeScalar):
            lam * s
    other = sf.DirectionGrid(n + 1)
    for x, y in itertools.product((s, d), (sup(Q, other), sf.SupportDelta(other, np.ones(n + 1)))):
        for op in (operator.add, operator.sub):
            with pytest.raises(sf.GridMismatch):
                op(x, y)
            with pytest.raises(sf.GridMismatch):
                op(y, x)


@pytest.mark.parametrize("cls", [sf.SupportSample, sf.SupportDelta])
def test_checked_wraps_without_copying(cls):
    vals = sup(Q).values
    out = cls._checked(G64, vals)
    assert type(out) is cls
    assert out.grid is G64 and out.values is vals


def test_grid_mismatch():
    with pytest.raises(sf.GridMismatch):
        sup(Q) + sf.support_of_polygon(Q, sf.DirectionGrid(32))


# --------------------------------------------------------------------- distances

def test_hausdorff_grid_identical():
    assert sf.hausdorff_grid(sup(Q), sup(Q)) == 0.0


def test_hausdorff_grid_point_pair():
    a = sup(sf.ConvexPolygon.point((1, 0)))
    b = sup(sf.ConvexPolygon.point((0, 0)))
    assert sf.hausdorff_grid(a, b) == pytest.approx(1.0)


def test_hausdorff_grid_axis_realizer_exact():
    # realizing direction (1,0) is a grid direction -> grid value is exact
    b = sf.ConvexPolygon.box((-1, 5), (-1, 1))
    assert sf.hausdorff_grid(sup(Q), sup(b)) == pytest.approx(4.0)
    assert sf.hausdorff_exact(Q, b) == pytest.approx(4.0)


def test_hausdorff_exact_values():
    assert sf.hausdorff_exact(Q, Q) == 0.0
    # frozen from a dense boundary-sampling oracle
    assert sf.hausdorff_exact(A1, Q) == pytest.approx(math.sqrt(13), abs=1e-12)
    assert sf.hausdorff_exact(A2, Q) == pytest.approx(math.sqrt(8.5), abs=1e-12)


def test_far_point_is_outside_a_small_polygon():
    # a polygon with short edges does not hide a point 1.4e6 away
    tri = sf.ConvexPolygon.from_points([[0, 0], [1e-4, 0], [0, 1e-4]])
    far = sf.ConvexPolygon.point((1e6, 1e6))
    assert sf.hausdorff_exact(tri, far) == pytest.approx(math.sqrt(2) * 1e6)


def test_a_point_beyond_a_thin_polygon_is_outside():
    # x lies within 1e-10 of every edge line of the thin quadrilateral q, yet 1e-2 past its
    # end: a tolerance on each edge line would call it inside, at distance 0
    d, e = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    q = sf.ConvexPolygon.from_points(
        [t * d + s * e for t, s in ((0.0, 0.0), (5e-3, -5e-12), (2e-2, 0.0), (1.5e-2, 5e-12))]
    )
    x = 3e-2 * d
    assert len(q) == 4
    assert sf.hausdorff_onesided(sf.ConvexPolygon.point(x), q) == pytest.approx(1e-2, abs=1e-15)
    assert np.allclose(sf.project_point(x, q), 2e-2 * d, rtol=0.0, atol=1e-15)


def test_hausdorff_exact_memory_is_bounded():
    # 4096 x 4096 vertex-edge pairs: an unblocked broadcast would peak near 300 MB
    grid = sf.DirectionGrid(4096)
    u = grid.directions
    ellipse = sf.SupportSample(grid, np.sqrt((2.0 * u[:, 0]) ** 2 + (1.5 * u[:, 1]) ** 2))
    p = sf.reconstruct_polygon(ellipse)
    assert len(p) == 4096
    tracemalloc.start()
    try:
        d = sf.hausdorff_exact(p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 0.0
    assert peak < 64 * 2**20


def test_grid_below_exact_and_scales():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = sf.ConvexPolygon.from_points(rng.uniform(-1.5, 1.5, (6, 2)))
        q = sf.ConvexPolygon.from_points(rng.uniform(-1.5, 1.5, (6, 2)))
        grid_d = sf.hausdorff_grid(sup(p), sup(q))
        assert grid_d <= sf.hausdorff_exact(p, q) + 1e-12
        lam = float(rng.uniform(0, 2))
        scaled = sf.hausdorff_grid(lam * sup(p), lam * sup(q))
        assert scaled == pytest.approx(lam * grid_d, abs=1e-12)


# -------------------------------------------------------------------- projection

def test_project_inside_is_identity():
    assert np.allclose(sf.project_point((0.2, -0.3), Q), (0.2, -0.3))


@pytest.mark.parametrize(
    "x, message",
    [([1.0, 2.0, 3.0, 4.0], "cannot reshape"), ([math.nan, 0.0], "vertices must be finite")],
)
def test_project_rejects_a_malformed_point(x, message):
    # four numbers are not a point, and NaN is not finite: neither is projected
    with pytest.raises(ValueError, match=message):
        sf.project_point(x, Q)


def test_project_corner_and_face():
    assert np.allclose(sf.project_point((3, 2), Q), (1, 1))
    assert np.allclose(sf.project_point((0, 5), Q), (0, 1))


@pytest.mark.parametrize("angle", [1e-8, 1e-7, math.pi / 2 - 1e-8])
def test_project_onto_a_corner_near_an_edge_normal(angle):
    # x - (1, 1) is within 1e-8 rad of an edge normal of Q: the edge line's distance
    # rounds to |x - (1, 1)|, yet its foot lies 1e-8 past the corner
    x = np.array([1.0 + math.cos(angle), 1.0 + math.sin(angle)])
    assert np.allclose(sf.project_point(x, Q), (1, 1), rtol=0.0, atol=1e-15)


def test_project_satisfies_variational_inequality():
    rng = np.random.default_rng(19)
    for _ in range(30):
        p = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2)))
        x = rng.uniform(-4, 4, 2)
        star = sf.project_point(x, p)
        for a in p.vertices:
            assert float((x - star) @ (a - star)) <= 1e-9


def test_project_is_one_lipschitz():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2)))
        x, y = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        px, py = sf.project_point(x, p), sf.project_point(y, p)
        assert np.hypot(*(px - py)) <= np.hypot(*(x - y)) + 1e-9


# -------------------------------------------------------------- farthest realizer

def test_farthest_realizer_rectangles():
    a, b = sf.farthest_realizer(A1, Q)
    assert np.allclose(a, (3, 2)) and np.allclose(b, (1, 1))
    norm = np.hypot(*(a - b))
    assert norm == pytest.approx(sf.hausdorff_onesided(A1, Q), abs=1e-12)


def test_farthest_realizer_points():
    a, b = sf.farthest_realizer(
        sf.ConvexPolygon.point((2, 0)), sf.ConvexPolygon.point((0, 0))
    )
    assert np.allclose(a, (2, 0)) and np.allclose(b, (0, 0))


def test_farthest_realizer_contained():
    inner = sf.ConvexPolygon.box((-0.5, 0.5), (-0.5, 0.5))
    with pytest.raises(sf.Contained):
        sf.farthest_realizer(inner, Q)
