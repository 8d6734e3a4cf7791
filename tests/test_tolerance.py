"""The one tolerance: every comparison takes default_tol of its own inputs.

Property tests of four comparisons that rest on it (Hukuhara differences,
the subtangent interval, polygon reconstruction and the grid Hausdorff
distance), and a check that no exported callable takes a per-call tolerance
or a fixed sampling shape.
"""

import inspect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow.support import default_tol

EPS = np.finfo(float).eps


@st.composite
def cone_samples(draw, grid=None):
    """Support sample of a polygon, segment, point, smooth set or regularized
    vector, of size 1e-4 to 1e4, centred at the origin or away from it."""
    grid = grid or sf.DirectionGrid(draw(st.sampled_from([3, 4, 8, 64, 257, 1024])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.integers(-4, 4))
    center = size * draw(st.sampled_from([0.0, 1.0, 100.0])) * rng.normal(size=2)
    kind = draw(st.sampled_from(["polygon", "segment", "point", "smooth", "regularized"]))
    if kind == "regularized":
        raw = size * rng.uniform(0.5, 1.5, grid.n) + grid.directions @ center
        return sf.regularize(raw, grid)
    if kind == "smooth":  # 300 points on an ellipse: a hull with many short edges
        t = rng.uniform(0.0, 2.0 * math.pi, 300)
        pts = np.column_stack([np.cos(t), rng.uniform(0.01, 1.0) * np.sin(t)])
    else:
        count = {"polygon": int(rng.integers(3, 9)), "segment": 2, "point": 1}[kind]
        pts = rng.uniform(-1.0, 1.0, (count, 2))
    return sf.support_of_polygon(sf.ConvexPolygon.from_points(size * pts + center), grid)


# ------------------------------------------------------------- Hukuhara differences

@st.composite
def hukuhara_pairs(draw):
    """(a, b, a is b + c): a Minkowski sum, a sum pushed out by up to ten
    tolerances and regularized, or an unrelated sample."""
    b = draw(cone_samples())
    c = draw(cone_samples(b.grid))
    kind = draw(st.sampled_from(["sum", "perturbed", "unrelated"]))
    if kind == "sum":
        return b + c, b, True
    if kind == "perturbed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        noise = 10.0 ** draw(st.integers(-3, 1)) * default_tol(b.values + c.values)
        outward = noise * rng.uniform(0.0, 1.0, b.grid.n)  # keeps b + c inside: never empty
        return sf.regularize(b.values + c.values + outward, b.grid), b, False
    return draw(cone_samples(b.grid)), b, False


@settings(max_examples=300)
@given(hukuhara_pairs())
def test_hukuhara_difference_adds_back_to_a(case):
    """b + (a -_H b) equals a within default_tol of the operands whenever the
    difference exists, and it exists for every Minkowski sum a = b + c."""
    a, b, is_sum = case
    c = sf.hukuhara_difference(a, b)
    assert c is not None or not is_sum
    if c is not None:
        gap = np.max(np.abs(b.values + c.values - a.values))
        assert gap <= default_tol(np.append(a.values, b.values))


# ------------------------------------------------------------- subtangent interval

@st.composite
def subtangent_cases(draw):
    """(v, sigma): v = w - kappa * sigma for a cone sample w, or noise.  A dent
    of a tenth of the tolerance, which the cone test accepts, can make sigma's
    margins negative and so bound lambda from above."""
    sigma = draw(cone_samples())
    grid, values = sigma.grid, sigma.values
    if draw(st.booleans()):
        values = values.copy()
        values[draw(st.integers(0, grid.n - 1))] -= 0.1 * default_tol(values)
        sigma = sf.SupportSample(grid, values)
    if draw(st.booleans()):
        w = draw(cone_samples(grid)).values
        return w - draw(st.floats(0.0, 4.0)) * values, sigma
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sigma.norm_inf * rng.normal(size=grid.n), sigma


@settings(max_examples=300)
@given(subtangent_cases())
def test_subtangent_interval_ends_pass_the_cone_test(case):
    """v + lambda * sigma passes the cone test at the tolerance the interval
    used, default_tol(v), at lam_min and at a finite lam_max; the allowance
    beyond it is the rounding of the sum and of its margins."""
    v, sigma = case
    feasible, lam_min, lam_max = sf.subtangent_feasible(v, sigma.values, sigma.grid)
    if not feasible:
        return
    tol = default_tol(v)
    for lam in (lam_min, lam_max):
        if math.isfinite(lam):
            rounding = 16 * EPS * (np.max(np.abs(v)) + lam * sigma.norm_inf)
            margins = sf.cone_margins(v + lam * sigma.values, sigma.grid)
            assert margins.min() >= -(tol + rounding)


# --------------------------------------------------------------------- reconstruction

@settings(max_examples=300)
@given(cone_samples())
def test_reconstruction_reproduces_the_sample(s):
    """The polygon cut out by the supporting lines of s has support s within
    default_tol(s).  The sets drawn have their vertices farther apart than the
    tolerance: ConvexPolygon merges points that share a tolerance cell, by
    design, and the gap can then reach that cell (see the README)."""
    back = sf.support_of_polygon(sf.reconstruct_polygon(s), s.grid)
    assert np.max(np.abs(back.values - s.values)) <= default_tol(s.values)


# ------------------------------------------------------------ Hausdorff distances

@st.composite
def polygons(draw):
    """A polygon of 3 to 8 random points, a segment or a point, of size 1e-4
    to 1e4, centred at the origin or away from it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.integers(-4, 4))
    center = size * draw(st.sampled_from([0.0, 1.0, 100.0])) * rng.normal(size=2)
    count = draw(st.sampled_from([1, 2, 3, 5, 8]))
    return sf.ConvexPolygon.from_points(size * rng.uniform(-1.0, 1.0, (count, 2)) + center)


def hausdorff_tol(*polys):
    return default_tol(np.concatenate([p.vertices.ravel() for p in polys]))


@settings(max_examples=200)
@given(polygons(), polygons(), st.sampled_from([3, 4, 8, 64, 257]), st.integers(2, 4))
def test_grid_distance_is_a_lower_bound_that_refinement_raises(a, b, n, k):
    """The grid estimate never exceeds the exact distance, and the estimate on
    the grid refined by an integer factor is at least the coarse one."""
    tol = hausdorff_tol(a, b)
    coarse, fine = (
        sf.hausdorff_grid(sf.support_of_polygon(a, g), sf.support_of_polygon(b, g))
        for g in (sf.DirectionGrid(n), sf.DirectionGrid(k * n))
    )
    exact = sf.hausdorff_exact(a, b)
    assert coarse <= exact + tol
    assert fine <= exact + tol
    assert fine >= coarse - tol


@settings(max_examples=100)
@given(polygons(), st.sampled_from([3, 4, 8, 64]), st.floats(0.5, 2.0), st.data())
def test_grid_distance_is_exact_along_a_grid_direction(a, n, length, data):
    """B = A + d u_j for each grid direction u_j: direction j realizes the
    distance d, so the grid estimate is exact there.  d is at least half of
    max(1, extent of A), so a max that skips u_j falls short by far more
    than the tolerance."""
    grid = sf.DirectionGrid(n)
    d = length * max(1.0, np.ptp(a.vertices))
    sigma = sf.support_of_polygon(a, grid)
    shifted = [sf.ConvexPolygon.from_points(a.vertices + d * u) for u in grid.directions]
    for b in shifted:
        est = sf.hausdorff_grid(sigma, sf.support_of_polygon(b, grid))
        assert abs(est - d) <= hausdorff_tol(a, b)
    b = shifted[data.draw(st.integers(0, n - 1))]
    assert abs(sf.hausdorff_exact(a, b) - d) <= hausdorff_tol(a, b)


# ------------------------------------------------------------------- no knobs

# per-call tolerances and the fixed sizes of random sampling, removed as settings
KNOBS = {"tol", "tol_ext", "threshold", "time_samples", "radius", "max_vertices",
         "center_scale", "max_side", "min_side"}
# the drift limit integrated states carry, and the tolerance a NotInCone reports
KEPT = {("SupportSample", "tol"), ("SetCurve", "tol"), ("NotInCone", "tol")}


def exported_parameters():
    """(owner, parameter) of every function setflow exports and of every
    function its exported classes define: constructors, methods, class methods."""
    for name in dir(sf):
        obj = getattr(sf, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            fns = [getattr(m, "__func__", m) for m in vars(obj).values()]
        else:
            fns = [obj]
        for fn in fns:
            if inspect.isfunction(fn):
                yield from ((name, p) for p in inspect.signature(fn).parameters)


def test_no_exported_callable_takes_a_knob():
    found = set(exported_parameters())
    assert KEPT <= found  # the walk reaches constructors
    assert {(owner, p) for owner, p in found if p in KNOBS} == KEPT
