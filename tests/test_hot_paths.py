"""The per-step Hukuhara and duality calls against the code they replaced.

hukuhara_difference and second_type_differential decide existence with one
is_in_cone test and never build a NotInCone; the reference builds the
SupportSample and catches NotInCone, as both functions once did.  The
extremal sets and the semi-inner product are compared with a reference that
takes default_tol and np.flatnonzero.  All comparisons are exact.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow import hukuhara
from setflow.errors import NotInCone, ZeroFunction
from setflow.support import TOL_REL, default_tol


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def sample_or_none(grid, values):
    try:
        return sf.SupportSample(grid, values)
    except NotInCone:
        return None


def reference_hukuhara_difference(a, b):
    return sample_or_none(a.grid, a.values - b.values)


def reference_second_type(delta):
    grid = delta.grid
    return sample_or_none(grid, np.roll(-delta.values, -(grid.n // 2)))


def same_result(got, ref) -> bool:
    if ref is None:
        return got is None
    return got is not None and np.array_equal(bits(got.values), bits(ref.values))


def no_not_in_cone(*args, **kwargs):
    raise AssertionError("NotInCone was built on an exception-free path")


# ------------------------------------------------------------ samples near the cone

grids = st.sampled_from([6, 8, 16, 64]).map(sf.DirectionGrid)  # 2 cos(delta) is 0 at n = 4
scales = st.integers(-6, 6).map(lambda e: 10.0 ** e)
coords = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def samples(draw, grid, scale):
    """Support sample of a random polygon, box or segment at the given scale."""
    kind = draw(st.sampled_from(["polygon", "box", "segment"]))
    if kind == "box":
        xs = sorted(draw(st.tuples(coords, coords)))
        ys = sorted(draw(st.tuples(coords, coords)))
        poly = sf.ConvexPolygon.box(tuple(scale * np.array(xs)), tuple(scale * np.array(ys)))
    else:
        count = 2 if kind == "segment" else draw(st.integers(3, 8))
        pts = draw(st.lists(st.tuples(coords, coords), min_size=count, max_size=count))
        poly = sf.ConvexPolygon.from_points(scale * np.array(pts))
    return sf.support_of_polygon(poly, grid)


def ellipse(grid, scale) -> sf.SupportSample:
    """Every margin positive, of order scale / n**2."""
    u = grid.directions
    return sf.SupportSample(grid, scale * np.hypot(1.5 * u[:, 0], 0.8 * u[:, 1]))


def move_margin(values, grid, i, k) -> np.ndarray:
    """values with entry i moved so that margin i reads -(1 + k) * default_tol(values)."""
    c = values.copy()
    target = -(1.0 + k) * float(default_tol(values))
    c[i] += (sf.cone_margins(values, grid)[i] - target) / grid.two_cos_delta
    return c


@st.composite
def near_boundary(draw, grid, scale):
    """A vector whose margin i lies k * default_tol from -default_tol, k in
    {0, +-0.5, +-1, +-2}: on the boundary of the cone test, inside it or
    outside it by up to two tolerances."""
    i = draw(st.integers(0, grid.n - 1))
    k = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0]))
    return move_margin(draw(samples(grid, scale)).values, grid, i, k)


@st.composite
def hukuhara_pairs(draw):
    grid, scale = draw(grids), draw(scales)
    if draw(st.booleans()):
        return draw(samples(grid, scale)), draw(samples(grid, draw(scales)))
    b = ellipse(grid, scale)
    return sf.SupportSample(grid, b.values + draw(near_boundary(grid, scale))), b


@st.composite
def derivative_deltas(draw):
    grid, scale = draw(grids), draw(scales)
    if draw(st.booleans()):
        values = draw(samples(grid, scale)).values - draw(samples(grid, scale)).values
    else:  # the rolled negation of this delta is the near-boundary vector
        values = -np.roll(draw(near_boundary(grid, scale)), grid.n // 2)
    return sf.SupportDelta(grid, values)


@settings(max_examples=400)
@given(hukuhara_pairs())
def test_hukuhara_difference_matches_caught_not_in_cone(pair):
    a, b = pair
    ref = reference_hukuhara_difference(a, b)
    with mock.patch.object(NotInCone, "__init__", no_not_in_cone):
        got = sf.hukuhara_difference(a, b)
    assert same_result(got, ref)
    if got is not None:
        assert not got.values.flags.writeable


@settings(max_examples=400)
@given(derivative_deltas())
def test_second_type_differential_matches_caught_not_in_cone(delta):
    ref = reference_second_type(delta)
    with mock.patch.object(NotInCone, "__init__", no_not_in_cone):
        got = sf.second_type_differential(delta)
    assert same_result(got, ref)
    if got is not None:
        assert not got.values.flags.writeable


def test_near_boundary_vectors_fall_on_both_sides_of_the_test():
    grid = sf.DirectionGrid(64)
    b = ellipse(grid, 1.0)
    c = sf.support_of_polygon(sf.ConvexPolygon.from_points([(0, 0), (1, 0.5)]), grid).values
    exists = {}
    for k in (-2.0, -0.5, 0.5, 2.0):
        a = sf.SupportSample(grid, b.values + move_margin(c, grid, 5, k))
        exists[k] = sf.hukuhara_difference(a, b) is not None
    assert exists == {-2.0: True, -0.5: True, 0.5: False, 2.0: False}


# ------------------------------------------------------------------ duality

def reference_extremal(vals):
    tol = default_tol(vals)
    norm = float(np.max(np.abs(vals)))
    if norm <= tol:
        full = np.arange(len(vals))
        return None, full, full
    return norm, np.flatnonzero(vals >= norm - tol), np.flatnonzero(vals <= -norm + tol)


def reference_semi_inner(f, g) -> float:
    gnorm, pos, neg = reference_extremal(g)
    if gnorm is None:
        return 0.0
    mpos = float(np.min(f[pos])) if len(pos) else math.inf
    mneg = float(np.min(-f[neg])) if len(neg) else math.inf
    return gnorm * min(mpos, mneg)


@st.composite
def extremal_vectors(draw, n):
    """Random vectors with planted near-ties, zero vectors and norms within tol of 0."""
    kind = draw(st.sampled_from(["ties", "ties", "ties", "zero", "tiny"]))
    if kind == "zero":
        return np.zeros(n)
    vals = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    if kind == "tiny":  # norm <= default_tol: the zero-function convention
        return vals * TOL_REL * draw(st.floats(0.0, 1.0))
    norm = draw(scales) * draw(st.floats(1.0, 2.0))
    vals *= norm * draw(st.floats(0.0, 1.0))
    tol = TOL_REL * max(1.0, norm)
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True)):
        sign = draw(st.sampled_from([1.0, -1.0]))
        vals[i] = sign * (norm - draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])) * tol)
    vals[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -1.0])) * norm
    return vals


@settings(max_examples=400)
@given(st.data())
def test_extremal_sets_and_semi_inner_match_reference(data):
    grid = sf.DirectionGrid(data.draw(st.sampled_from([3, 8, 64])))
    g = data.draw(extremal_vectors(grid.n))
    f = data.draw(extremal_vectors(grid.n))
    gnorm, pos, neg = reference_extremal(g)
    fd, gd = sf.SupportDelta(grid, f), sf.SupportDelta(grid, g)
    es = sf.extremal_sets(gd)
    assert es == (tuple(pos.tolist()), tuple(neg.tolist()))
    assert all(type(i) is int for i in es[0] + es[1])
    inner = sf.semi_inner(fd, gd)
    assert bits(inner) == bits(reference_semi_inner(f, g))
    if gnorm is None:
        with pytest.raises(ZeroFunction):
            sf.dual_representatives(gd)
    else:
        assert min(mu(fd) for mu in sf.dual_representatives(gd)) == inner


def test_difference_quotients_are_read_only_views_of_the_curve():
    grid = sf.DirectionGrid(16)
    q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
    a0 = sf.ConvexPolygon.box((0, 3.5), (-1.5, 2.5))
    curve = sf.relaxation_curve(a0, q, np.linspace(0.0, 1.0, 6), grid)
    for k in range(1, len(curve) - 1):
        fwd, bwd = hukuhara.difference_quotients(curve, k)
        assert np.shares_memory(fwd.values, curve.quotients[k])
        assert np.shares_memory(bwd.values, curve.quotients[k - 1])
        assert fwd.grid is curve.grid and bwd.grid is curve.grid
        for d in (fwd, bwd):
            with pytest.raises(ValueError):
                d.values[0] = 0.0
