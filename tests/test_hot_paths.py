"""The per-step Hukuhara, duality and integrator calls against the code they replaced.

hukuhara_difference and second_type_differential decide existence with one
is_in_cone test and never build a NotInCone; the reference builds the
SupportSample and catches NotInCone, as both functions once did.  is_in_cone
is held to the compare-and-any form it replaced, in which a NaN margin fails.
The extremal sets and the semi-inner product are compared with a reference
that takes default_tol and np.flatnonzero, and the cached sets of a curve's
shared quotient deltas with fresh copies.  A curve computes the extremal sets
of its quotients in one stacked pass, held row by row to that reference, and
whether the Hukuhara difference of each two consecutive samples exists in one
stacked cone test, held to the per-pair test.  The same pass keeps the
semi-inner product of each two consecutive quotients, held to the per-call
path, and the three-term margins of a stack take one flat pass, held to the
rows.  Building a curve's deltas holds nothing per zero quotient and peaks
at a few stacks of the quotients.  The RK4 step is held to its textbook
expression.  All comparisons are exact.  The sampled checks evaluate a
declared affine field once, and any other field at every sampled time.
"""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import setflow as sf
from setflow import cli, dynamics, formats, hukuhara, support
from setflow.errors import NonFiniteValue, NotInCone, ZeroFunction
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


# ------------------------------------------------------------------ cone test

def reference_cone_test(margins, values):
    """The compare / any / reshaped-limit form that is_in_cone replaced, where a margin below
    the limit or NaN fails its row, and so does a NaN or infinite entry (a non-finite limit)."""
    limit = np.asarray(default_tol(values))[..., None]
    return ~((margins < -limit) | np.isnan(margins) | ~np.isfinite(limit)).any(axis=-1)[()]


@st.composite
def margin_stacks(draw):
    """Values of shape (n,), (B, n) or (A, B, n) and margins for them: random ones
    around the limit, NaN, +-inf, +-0.0, exactly -default_tol, one ulp either side,
    and rows of only NaN.  The values hold NaN and +-inf entries too."""
    n = draw(st.sampled_from([3, 8, 64, 257]))
    lead = draw(st.sampled_from([(), (1,), (4,), (2, 3), (3, 1)]))
    shape = lead + (n,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=lead + (1,))
    odd = rng.random(shape) < draw(st.sampled_from([0.0, 0.01, 0.1]))
    values[odd] = rng.choice([math.nan, math.inf, -math.inf], size=odd.sum())
    limit = np.broadcast_to(np.asarray(default_tol(values))[..., None], shape)
    picks = [
        rng.standard_normal(shape) * 4.0 * limit,
        np.full(shape, math.nan), np.full(shape, math.inf), np.full(shape, -math.inf),
        np.full(shape, -0.0), np.zeros(shape), -limit,
        np.nextafter(-limit, -math.inf), np.nextafter(-limit, math.inf),
    ]
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=9, max_size=9))) + 0.01
    kind = rng.choice(len(picks), size=shape, p=weights / weights.sum())
    margins = np.choose(kind, picks)
    if lead and draw(st.booleans()):
        margins.reshape(-1, n)[rng.integers(0, margins.size // n)] = math.nan
    return sf.DirectionGrid(n), values, margins


@settings(max_examples=300)
@given(margin_stacks())
def test_cone_test_reduction_matches_compare_and_any(case):
    grid, values, margins = case
    ref = reference_cone_test(margins, values)
    with mock.patch.object(support, "cone_margins", return_value=margins):
        got = sf.is_in_cone(values, grid)
    if margins.ndim == 1:
        assert type(got) is np.bool_ and type(ref) is np.bool_
    else:
        assert type(got) is np.ndarray and got.dtype == bool and got.shape == margins.shape[:-1]
    assert np.array_equal(got, ref)
    with np.errstate(invalid="ignore"):  # inf - inf in the margins of infinite entries
        real = sf.is_in_cone(values, grid)
        assert np.array_equal(real, reference_cone_test(sf.cone_margins(values, grid), values))


def test_cone_test_limit_is_inclusive_and_nan_fails():
    grid, values = sf.DirectionGrid(8), np.ones(8)
    margins = np.zeros(8)
    with mock.patch.object(support, "cone_margins", return_value=margins):
        for at, passes in ((-default_tol(values), True), (-0.0, True), (math.nan, False),
                           (np.nextafter(-default_tol(values), -math.inf), False)):
            margins[3] = at
            assert sf.is_in_cone(values, grid) is np.bool_(passes)
        margins[:] = math.nan
        assert sf.is_in_cone(values, grid) is np.False_


# ---------------------------------------------------- shared quotient deltas

def analyze_curve():
    """An analyze-style curve: 400 RK4 steps at n 64, relaxing a box to a square."""
    grid = sf.DirectionGrid(64)
    target = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-1, 1)), grid)
    start = sf.support_of_polygon(sf.ConvexPolygon.box((0, 3.5), (-1.5, 2.5)), grid)
    return sf.integrate(sf.relax_to(target), start, 4.0, 0.01, method="rk4").curve()


def banded_curve():
    """Zero quotients (repeated rows), constant ones (every index extremal) and box
    growth (ties at the corners of the normal fan), shrinking and growing."""
    grid = sf.DirectionGrid(16)
    box = sf.support_of_polygon(sf.ConvexPolygon.box((0, 2), (0, 1)), grid).values
    wide = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 3), (0, 1)), grid).values
    rows = [box, box, box + 0.5, box + 1.0, wide + 1.0, wide + 1.0, box, box + 1e-12, box]
    return sf.SetCurve(grid, np.arange(len(rows)) * 0.25, rows)


def fresh(d):
    return sf.SupportDelta(d.grid, d.values.copy())


def duality_results(f, g):
    try:
        reps = [mu.atoms for mu in sf.dual_representatives(g)]
    except ZeroFunction:
        reps = None
    return bits(sf.semi_inner(f, g)).tobytes(), reps, sf.extremal_sets(g)


def test_extremal_sets_run_once_per_distinct_delta():
    # one stacked _extremal call per curve, when its deltas are built, and no call per row
    curve = analyze_curve()
    steps = range(1, len(curve) - 1)
    assert len(steps) == 399
    with mock.patch.object(hukuhara, "_extremal", wraps=support._extremal) as stacked, \
            mock.patch.object(support, "_extremal", wraps=support._extremal) as per_row:
        for k in steps:
            fwd, bwd = hukuhara.difference_quotients(curve, k)
            sf.hukuhara_difference(curve.samples[k + 1], curve.samples[k])
            inner = sf.semi_inner(fwd, bwd)
            assert min(mu(fwd) for mu in sf.dual_representatives(bwd)) == inner
    assert stacked.call_count == 1 and stacked.call_args.args[0] is curve.quotients
    assert per_row.call_count == 0
    for k in steps[1:]:
        assert hukuhara.difference_quotients(curve, k)[1] is (
            hukuhara.difference_quotients(curve, k - 1)[0])


@pytest.mark.parametrize("make", [analyze_curve, banded_curve])
def test_shared_deltas_give_the_bits_of_fresh_copies(make):
    curve = make()
    for _ in range(2):  # the second pass reads the sets cached by the first
        for k in range(1, len(curve) - 1):
            fwd, bwd = hukuhara.difference_quotients(curve, k)
            for f, g in ((fwd, bwd), (bwd, fwd)):
                assert duality_results(f, g) == duality_results(fresh(f), fresh(g))
            for d in (fwd, bwd):
                with pytest.raises(ValueError):
                    d.values[0] = 0.0


def test_banded_curve_has_zero_and_flat_quotients():
    deltas = banded_curve().deltas
    sets = [sf.extremal_sets(d) for d in deltas]
    assert sets[0] == (tuple(range(16)), tuple(range(16)))  # zero: the whole grid twice
    assert sets[1] == (tuple(range(16)), ())  # constant: every index in E+
    assert 1 < len(sets[3][0]) < 16  # box growth: a band of ties


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_delta_cannot_be_built(bad):
    # its extremal sets were undefined, and every semi_inner call raised again
    grid = sf.DirectionGrid(8)
    with pytest.raises(NonFiniteValue, match="non-finite values"):
        sf.SupportDelta(grid, np.where(np.arange(8) == 2, bad, 1.0))


# ------------------------------------------------------ stacked passes of a curve

@st.composite
def extremal_stacks(draw):
    """A stack (1, n), (6, n) or (2, 3, n), n in {3, 8, 64, 257}, of rows with planted ties
    within 0, 0.5, 1 or 2 tolerances of the norm, flat bands at the norm, zero rows, and rows
    within the tolerance of zero or exactly at it."""
    n = draw(st.sampled_from([3, 8, 64, 257]))
    lead = draw(st.sampled_from([(1,), (6,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.uniform(-1.0, 1.0, lead + (n,))
    for row in stack.reshape(-1, n):
        kind = rng.choice(["ties", "band", "zero", "tiny", "edge"])
        norm = 10.0 ** rng.integers(-6, 7) * rng.uniform(1.0, 2.0)
        tol = TOL_REL * max(1.0, norm)
        if kind == "zero":
            row[:] = 0.0
        elif kind == "tiny":  # the norm is within default_tol of zero
            row *= TOL_REL * rng.uniform(0.0, 1.0)
        elif kind == "edge":  # the norm is default_tol exactly: still the zero function
            row /= np.abs(row).max()
            row *= TOL_REL
        else:
            row *= norm * rng.uniform(0.0, 1.0)
            sign = rng.choice([1.0, -1.0])
            if kind == "band":  # a run of equal entries at the norm, wrapping around
                row[np.arange(rng.integers(0, n), n + rng.integers(0, n)) % n] = sign * norm
            for i in rng.integers(0, n, size=rng.integers(1, 7)):
                row[i] = rng.choice([1.0, -1.0]) * (norm - rng.choice([0.0, 0.5, 1.0, 2.0]) * tol)
            row[rng.integers(0, n)] = sign * norm
    return stack


@settings(max_examples=300)
@given(extremal_stacks())
def test_stacked_extremal_sets_match_the_per_row_calls(stack):
    before = stack.copy()
    got = support._extremal(stack)
    rows = stack.reshape(-1, stack.shape[-1])
    assert type(got) is list and len(got) == len(rows)
    assert np.array_equal(bits(stack), bits(before))
    for row, sets in zip(rows, got):
        norm, pos, neg = reference_extremal(row)
        if norm is None:
            assert sets[0] is None
        else:
            assert type(sets[0]) is float and bits(sets[0]) == bits(norm)
        for a, b in zip(sets[1:], (pos, neg)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable


def test_an_overflowing_quotient_cannot_build_a_curve():
    # a step of 5e-324 sent the growth to inf: the curve warned, and the grow-then-shrink
    # step read SecondType, as the NaN margins of the inf quotient passed the cone test
    grid = sf.DirectionGrid(16)
    box = sf.support_of_polygon(sf.ConvexPolygon.box((0, 2), (0, 1)), grid).values
    wide = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 3), (0, 1)), grid).values
    with pytest.raises(NonFiniteValue, match="non-finite values"):  # and no RuntimeWarning
        sf.SetCurve(grid, [0.0, 5e-324, 1.0], [box, wide, box])


def curves_and_reversals():
    curves = [analyze_curve(), banded_curve()]
    return curves + [hukuhara.time_reverse(c) for c in curves]


def test_consecutive_samples_read_the_stacked_hukuhara_test():
    found = set()
    for curve in curves_and_reversals():
        s = curve.samples
        refs = [hukuhara._sample_or_none(curve.grid, b.values - a.values) for a, b in zip(s, s[1:])]
        with mock.patch.object(hukuhara, "is_in_cone", wraps=support.is_in_cone) as spy:
            got = [sf.hukuhara_difference(b, a) for a, b in zip(s, s[1:])]
        assert spy.call_count == 0
        for d, ref in zip(got, refs):
            assert same_result(d, ref)
            assert d is None or (not d.values.flags.writeable and d.grid is curve.grid)
            found.add(d is None)
    assert found == {True, False}  # both answers are read from the kept bits


def test_other_pairs_of_samples_take_the_per_pair_test():
    # the reversed order, a step of two, equal values from another curve, fresh samples
    for curve, twin in zip(curves_and_reversals(), curves_and_reversals()):
        s, t = curve.samples, twin.samples
        fresh = [sf.SupportSample(curve.grid, a.values.copy()) for a in s]
        pairs = [p for k in range(len(s) - 2) for p in (
            (s[k], s[k + 1]), (s[k + 2], s[k]), (s[k + 1], t[k]), (fresh[k + 1], fresh[k]))]
        refs = [hukuhara._sample_or_none(curve.grid, a.values - b.values) for a, b in pairs]
        with mock.patch.object(hukuhara, "is_in_cone", wraps=support.is_in_cone) as spy:
            got = [sf.hukuhara_difference(a, b) for a, b in pairs]
        assert spy.call_count == len(pairs)
        assert all(same_result(d, ref) for d, ref in zip(got, refs))


def test_a_curve_sample_copies_and_pickles_alone():
    # a sample keeps its successor's values, not the successor: no chain of samples to copy
    for curve in curves_and_reversals():
        s = curve.samples
        for a, b in ((s[1], s[0]), (s[-1], s[-2])):
            for b2 in (copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
                assert b2._successor[1] == b._successor[1]
                assert np.array_equal(bits(b2._successor[0]), bits(a.values))
                assert same_result(sf.hukuhara_difference(a, b2), sf.hukuhara_difference(a, b))


@pytest.mark.parametrize("make", [analyze_curve, banded_curve])
def test_a_curve_dies_with_its_last_reference(make):
    # its samples link forward to their successors, never back to the curve: no cycle
    curve = make()
    assert sf.hukuhara_difference(curve.samples[1], curve.samples[0]) is not curve
    assert len(curve.deltas) == len(curve) - 1
    # its deltas keep their pairings with the next row's values; representatives are built too
    for g, f in zip(curve.deltas, curve.deltas[1:]):
        sf.semi_inner(f, g)
        with contextlib.suppress(ZeroFunction):
            sf.dual_representatives(g)
        kept = vars(g).get("_pairing")  # none where the least value is zero
        assert kept is None or (kept[0] is f.values and type(kept[0]) is np.ndarray)
    ref = weakref.ref(curve)
    gc.disable()
    try:
        del curve
        assert ref() is None
    finally:
        gc.enable()


def test_a_curve_delta_copies_and_pickles_alone():
    # a delta keeps its pairing keyed by the next row's values, not the next delta; a deep
    # copy or a pickle keys it by a copy of that row, so a pairing with it runs the per-call path
    for curve in curves_and_reversals():
        d = curve.deltas
        kept = [(g, f) for g, f in zip(d, d[1:]) if "_pairing" in vars(g)]
        for g, f in (kept[0], kept[-1]):
            want = bits(sf.semi_inner(fresh(f), fresh(g)))
            assert copy.copy(g)._pairing[0] is f.values
            assert bits(sf.semi_inner(f, copy.copy(g))) == want
            for g2 in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                key, inner = g2._pairing
                assert key is not f.values and np.array_equal(bits(key), bits(f.values))
                assert bits(inner) == bits(g._pairing[1]) == want
                del vars(g2)["_extrema"]  # the per-call path computes the sets again
                with mock.patch.object(support, "_extremal", wraps=support._extremal) as spy:
                    assert bits(sf.semi_inner(f, g2)) == want
                assert spy.call_count == 1


@st.composite
def paired_curves(draw):
    """A curve of planted quotients, or a relaxation curve between random boxes.

    Values 0, r0, 0, r1, ... at times 0, 1, 2, ... give the quotients r0, -r0, r1, -r1, ...
    exactly, so the consecutive pairs are (r_k, -r_{k-1}) and (-r_k, r_k).  The rows are those
    of extremal_stacks (near-ties within 0 to 2 tolerances of the norm, flat bands, zero rows,
    norms within the tolerance of zero); in some, every entry on the extremal sets of the row
    before is +0.0 or -0.0, so the least value of their pairing is a zero of either sign."""
    if draw(st.booleans()):
        grid = sf.DirectionGrid(draw(st.sampled_from([8, 64])))
        a0, q = (sf.ConvexPolygon.box(*np.sort(draw(hnp.arrays(float, (2, 2), elements=coords))))
                 for _ in range(2))
        times = np.linspace(0.0, draw(st.floats(0.1, 4.0)), draw(st.integers(3, 40)))
        return sf.relaxation_curve(a0, q, times, grid)
    stack = draw(extremal_stacks())
    rows = stack.reshape(-1, stack.shape[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for prev, row in zip(rows, rows[1:]):
        norm = np.abs(prev).max()
        if rng.random() < 0.5 and norm > default_tol(prev):
            at = np.abs(prev) >= norm - 2.0 * default_tol(prev)
            row[at] = rng.choice([0.0, -0.0], size=at.sum())
    values = np.zeros((2 * len(rows), rows.shape[-1]))
    values[1::2] = rows
    return sf.SetCurve(sf.DirectionGrid(rows.shape[-1]), np.arange(len(values)), values,
                       tol=math.inf)


@settings(max_examples=200)
@given(paired_curves(), st.booleans())
def test_kept_pairings_give_the_bits_of_the_per_call_path(curve, reverse):
    curve = hukuhara.time_reverse(curve) if reverse else curve
    deltas = curve.deltas
    for g, f in zip(deltas, deltas[1:]):
        want = sf.semi_inner(fresh(f), fresh(g))
        kept = vars(g).get("_pairing")
        assert kept is not None or want == 0.0  # a zero least value takes the per-call path
        assert kept is None or kept[0] is f.values
        assert bits(sf.semi_inner(f, g)) == bits(want)
        # the other order, and a pair two steps apart, are not kept
        assert bits(sf.semi_inner(g, f)) == bits(sf.semi_inner(fresh(g), fresh(f)))
    for g, f in zip(deltas, deltas[2:]):
        assert bits(sf.semi_inner(f, g)) == bits(sf.semi_inner(fresh(f), fresh(g)))


def test_a_zero_least_value_takes_the_per_call_path():
    # the stacked min of +0.0 and -0.0 may differ in sign from the per-call min
    grid = sf.DirectionGrid(8)
    g = np.array([2.0, 2.0, 1.0, 0.0, -1.0, 0.5, 0.0, 2.0])
    for f in ([0.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, -0.0], [-0.0, 0.0, 5.0, 1, 1, 1, 1, 0.0]):
        values = np.zeros((4, 8))
        values[1], values[3] = -g, np.array(f)  # quotients -g, g, f: the pair (f, g) is last
        deltas = sf.SetCurve(grid, np.arange(4.0), values, tol=math.inf).deltas
        assert "_pairing" not in vars(deltas[1]) and "_pairing" in vars(deltas[0])
        want = sf.semi_inner(fresh(deltas[2]), fresh(deltas[1]))
        assert want == 0.0 and bits(sf.semi_inner(deltas[2], deltas[1])) == bits(want)


def test_representatives_come_in_a_new_list_on_each_call():
    deltas = banded_curve().deltas
    g = deltas[3]  # box growth: a band of ties
    first = sf.dual_representatives(g)
    atoms = [mu.atoms for mu in first]
    assert len(atoms) > 1
    first.clear()
    again = sf.dual_representatives(g)
    assert again is not first and [mu.atoms for mu in again] == atoms
    for _ in range(2):
        with pytest.raises(ZeroFunction):
            sf.dual_representatives(deltas[0])


def traced_deltas(curve):
    """(held, peak) bytes that tracemalloc sees while a curve builds its deltas."""
    tracemalloc.start()
    try:
        deltas = curve.deltas
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return deltas, held, peak


def test_curve_deltas_memory_is_bounded():
    # 400 rows at n 4096: a stack of the quotients is K * n * 8 = 13 MB
    grid, times = sf.DirectionGrid(4096), np.arange(400) * 0.01
    box = sf.support_of_polygon(sf.ConvexPolygon.box((0, 2), (0, 1)), grid).values
    stack = (len(times) - 1) * grid.n * 8
    # every quotient of a constant curve is zero: no index array per row, one shared grid
    deltas, held, peak = traced_deltas(sf.SetCurve(grid, times, np.broadcast_to(box, (400, 4096))))
    assert held < 2**20 and peak < 2 * stack
    whole = {id(s) for d in deltas for s in d._extrema[1:]}
    assert len(whole) == 1 and np.array_equal(deltas[0]._extrema[1], np.arange(grid.n))
    assert not deltas[0]._extrema[1].flags.writeable
    # relaxing a point to the unit disc: every index of every quotient is extremal
    disc = sf.relax_to(sf.SupportSample(grid, np.ones(grid.n)))
    curve = sf.SetCurve(grid, times, sf.exact_flow(disc, np.zeros(grid.n), times))
    deltas, held, peak = traced_deltas(curve)
    assert all(len(d._extrema[1]) == grid.n for d in deltas)
    assert peak < 4 * stack  # measured 3.4: the masks, the next rows and one index per entry


# ------------------------------------------------------ flat three-term margins

def reference_three_term(row, two_cos):
    """s_{i-1} + s_{i+1} - 2 cos(delta) s_i of one row, entry by entry, in Python floats."""
    v, n = row.tolist(), len(row)
    return [(v[i - 1] + v[(i + 1) % n]) - two_cos * v[i] for i in range(n)]


def reference_margins(row, two_cos):
    """The three-term margins of a row, each non-finite one taken again as 4 times that of
    row / 4 (Python floats overflow to inf without an error)."""
    again = reference_three_term(0.25 * row, two_cos)
    return [m if math.isfinite(m) else 4.0 * a
            for m, a in zip(reference_three_term(row, two_cos), again)]


@st.composite
def margin_views(draw):
    """A stack (n,), (B, n) or (A, B, n), n in {3, 4, 8, 64}, contiguous or a view that is
    not: transposed, every other row, every other entry, or reversed entries.  Each row is
    random in [-1, 1] at a scale of 1, 1e300 or 1e308, or near the top of the float range
    with every entry positive, so that every sum overflows and is taken again from s / 4."""
    n = draw(st.sampled_from([3, 4, 8, 64]))
    lead = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    view = draw(st.sampled_from(["contiguous", "transposed", "rows", "entries", "reversed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if view == "rows" and lead:
        lead = (2 * lead[0],) + lead[1:]
    base = rng.uniform(-1.0, 1.0, lead + ((2 * n,) if view == "entries" else (n,)))
    rows = base.reshape(-1, base.shape[-1])
    for row in rows:
        kind = rng.integers(4)
        row *= (1.0, 1e300, 1e308)[kind] if kind < 3 else 0.0
        if kind == 3:
            row += rng.uniform(1.5e308, 1.79e308, len(row))
    if view == "transposed":
        return np.ascontiguousarray(base.T).T
    return {"contiguous": base, "rows": base[::2] if lead else base,
            "entries": base[..., ::2], "reversed": base[..., ::-1]}[view]


@settings(max_examples=200)
@given(margin_views())
def test_flat_three_term_matches_the_rows(s):
    grid = sf.DirectionGrid(s.shape[-1])
    before = s.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        flat = support._three_term(s, grid)
    margins = sf.cone_margins(s, grid)
    assert flat.shape == margins.shape == s.shape
    assert np.array_equal(bits(s), bits(before))
    two_cos = grid.two_cos_delta
    for k, row in enumerate(s.reshape(-1, grid.n)):
        assert np.array_equal(bits(flat.reshape(-1, grid.n)[k]),
                              bits(reference_three_term(row, two_cos)))
        assert np.array_equal(bits(margins.reshape(-1, grid.n)[k]),
                              bits(reference_margins(row, two_cos)))


# ------------------------------------------------------------------ RK4 step

def reference_rk4_step(f, t, y, h):
    k1 = f.eval(t, y)
    k2 = f.eval(t + h / 2.0, y + (h / 2.0) * k1)
    k3 = f.eval(t + h / 2.0, y + (h / 2.0) * k2)
    k4 = f.eval(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def random_field(grid, rng, kind):
    """A row-by-row field: affine and nonlinear, a row result broadcast, or the input itself."""
    m = rng.standard_normal((grid.n, grid.n)) / grid.n
    b = rng.standard_normal(grid.n)
    fns = {
        "affine": lambda t, y: y @ m.T + math.sin(t) * b,
        "nonlinear": lambda t, y: np.tanh(y) * b - 0.5 * y * np.abs(y) + t,
        "row": lambda t, y: math.cos(t) * b,
        "identity": lambda t, y: y,
    }
    return sf.RhsField(grid, fns[kind])


@settings(max_examples=200)
@given(
    st.sampled_from([3, 8, 64]), st.integers(1, 4), st.integers(0, 2**32 - 1),
    st.sampled_from(["affine", "nonlinear", "row", "identity"]),
    st.floats(1e-3, 1.0), st.floats(-2.0, 2.0),
)
def test_rk4_step_matches_the_textbook_expression(n, rows, seed, kind, h, t):
    grid = sf.DirectionGrid(n)
    rng = np.random.default_rng(seed)
    f = random_field(grid, rng, kind)
    y = rng.standard_normal((rows, n))
    before = y.copy()
    got = dynamics._rk4_step(f, t, y, h)
    assert got.tobytes() == reference_rk4_step(f, t, y, h).tobytes()
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape", [(1, 16), (16,)])
def test_a_stored_field_array_is_never_written(shape):
    grid = sf.DirectionGrid(16)
    stored = np.random.default_rng(3).standard_normal(shape)
    kept = stored.copy()
    f = sf.RhsField(grid, lambda t, y: stored)
    sigma0 = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-1, 1)), grid)
    traj = sf.integrate(f, sigma0, 1.0, 0.1, method="rk4", policy="never")
    assert stored.tobytes() == kept.tobytes()
    y = sigma0.values[None, :]
    for j in range(1, len(traj)):
        y = reference_rk4_step(f, traj.times[j - 1], y, traj.times[j] - traj.times[j - 1])
        assert traj.states[j].tobytes() == y[0].tobytes()


# --------------------------------------- one evaluation of a declared affine field

def counted(field):
    """field with its fn wrapped by a spy, and the list of times the spy was called at."""
    calls = []

    def fn(t, y):
        calls.append(t)
        return field.fn(t, y)

    return dataclasses.replace(field, fn=fn), calls


def undeclared(field):
    return dataclasses.replace(field, affine=None)


GRID16 = sf.DirectionGrid(16)
TARGET16 = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-1, 1)), GRID16)
START16 = sf.support_of_polygon(sf.ConvexPolygon.box((2, 3), (1, 2)), GRID16)
AFFINE16 = [sf.relax_to(TARGET16), sf.expansion_field(GRID16, 0.5),
            sf.constant_field(sf.SupportDelta(GRID16, np.linspace(-1.0, 1.0, 16)))]


@pytest.mark.parametrize("field", AFFINE16, ids=lambda f: f.name)
def test_horizon_and_lipschitz_evaluate_an_affine_field_once(field):
    for check in (sf.existence_horizon, sf.lipschitz_estimate):
        once, calls = counted(field)
        every, every_calls = counted(undeclared(field))
        got = check(once, START16, 1.0, 2.0, 32, seed=3)
        want = check(every, START16, 1.0, 2.0, 32, seed=3)
        assert (len(calls), len(every_calls)) == (1, 9), check.__name__
        assert got == want, check.__name__  # the same bits at every time


def test_an_undeclared_field_still_takes_its_bound_at_t_equal_T():
    # (1 + t) y grows with t: evaluated at t = 0 alone it would give a smaller c and L
    T = 2.0
    grow = sf.RhsField(GRID16, lambda t, y: (1.0 + t) * y)
    at_T = sf.RhsField(GRID16, lambda t, y: (1.0 + T) * y, affine=(1.0 + T, 0.0))
    at_0 = sf.RhsField(GRID16, lambda t, y: y, affine=(1.0, 0.0))
    c, _ = sf.existence_horizon(grow, START16, 1.0, T, seed=5)
    assert c == sf.existence_horizon(at_T, START16, 1.0, T, seed=5)[0]
    assert c > sf.existence_horizon(at_0, START16, 1.0, T, seed=5)[0]
    lip = sf.lipschitz_estimate(grow, START16, 1.0, T, seed=5)
    assert lip == sf.lipschitz_estimate(at_T, START16, 1.0, T, seed=5) > 1.0 + 1e-9


class SkipFirstPair:
    """A Generator stand-in whose first rectangle pair draws one box twice: check osl skips
    that pair and draws a second batch of one pair."""

    def __init__(self, seed):
        self.rng, self.first = np.random.default_rng(seed), True

    def random(self, size):
        u = self.rng.random(size)
        if self.first:
            u[0, 4:8], self.first = u[0, 0:4], False
        return u


def run_check(check, cfg, rng):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = check(cfg, rng)
    return code, out.getvalue()


@pytest.mark.parametrize("rhs", [
    {"kind": "relax_to", "target": {"box": [[-1, 1], [-1, 1]]}},
    {"kind": "expand", "rate": 0.5},
    {"kind": "constant", "delta": [0.25] * 16},
], ids=lambda rhs: rhs["kind"])
def test_check_osl_and_subtangent_evaluate_an_affine_field_once_per_batch(tmp_path, rhs):
    samples = 12
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"grid_n": 16, "T": 1.5, "h": 0.1, "rhs": rhs,
                                  "initial": {"box": [[2, 3], [1, 2]]}, "samples": samples}))
    cfg = formats.load_scenario(config)
    once, calls = counted(cfg.field)
    every, every_calls = counted(undeclared(cfg.field))
    with mock.patch.object(cli, "rectangle_pairs", wraps=cli.rectangle_pairs) as batches:
        got = run_check(cli._check_osl, dataclasses.replace(cfg, field=once), SkipFirstPair(7))
    assert (batches.call_count, len(calls)) == (2, 2)
    want = run_check(cli._check_osl, dataclasses.replace(cfg, field=every), SkipFirstPair(7))
    assert len(every_calls) == samples + 1  # the skipped pair is evaluated too
    assert got == want
    calls.clear(), every_calls.clear()
    got = run_check(cli._check_subtangent, dataclasses.replace(cfg, field=once),
                    np.random.default_rng(7))
    want = run_check(cli._check_subtangent, dataclasses.replace(cfg, field=every),
                     np.random.default_rng(7))
    assert (len(calls), len(every_calls)) == (1, samples)
    assert got == want
