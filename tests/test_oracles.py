"""The array kernels against the per-vector reference code they replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the np.roll margin formula, the per-step classifier with four
separate cone tests, and the per-index subtangent loop.  The kernels keep
the same floating-point operations in the same order, so the comparisons
are exact, not approximate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import setflow as sf
from setflow import HukuharaClass
from setflow.cli import EXAMPLE_RECTS, EXAMPLE_TARGET

TOL_REL = 1e-9


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def roll_margins(values, grid):
    s = np.asarray(values, dtype=float)
    return np.roll(s, 1) + np.roll(s, -1) - grid.two_cos_delta * s


def reference_in_cone(values, grid, tol=None) -> bool:
    if tol is None:
        tol = TOL_REL * max(1.0, float(np.max(np.abs(values))))
    return not np.any(roll_margins(values, grid) < -tol)


def reference_classify_step(c, k, tol=None) -> HukuharaClass:
    t = c.times
    v = [s.values for s in c.samples]
    fwd = (v[k + 1] - v[k]) / (t[k + 1] - t[k])
    bwd = (v[k] - v[k - 1]) / (t[k] - t[k - 1])
    first = reference_in_cone(fwd, c.grid, tol) and reference_in_cone(bwd, c.grid, tol)
    second = reference_in_cone(-fwd, c.grid, tol) and reference_in_cone(-bwd, c.grid, tol)
    if first and second:
        return HukuharaClass.BOTH
    if first:
        return HukuharaClass.FIRST_TYPE
    if second:
        return HukuharaClass.SECOND_TYPE
    return HukuharaClass.NEITHER


def reference_subtangent(v, sigma, tol=None):
    vvals = np.asarray(getattr(v, "values", v), dtype=float)
    grid = sigma.grid
    a = roll_margins(vvals, grid)
    b = roll_margins(sigma.values, grid)
    if tol is None:
        tol = TOL_REL * max(1.0, float(np.max(np.abs(vvals))))
    flat = 1e-12 * max(1.0, float(np.max(np.abs(sigma.values))))
    lam_min, lam_max = 0.0, math.inf
    for ai, bi in zip(a, b):
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
    for k, row in enumerate(stack):
        assert np.array_equal(bits(margins[k]), bits(roll_margins(row, grid)))
        single = sf.is_in_cone(row, grid)
        assert verdict.ok[k] == single.ok == reference_in_cone(row, grid)
        assert verdict.first_violation[k] == (
            -1 if single.first_violation is None else single.first_violation
        )


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


@pytest.mark.parametrize("tol", [None, 0.0, 0.05])
def test_classification_matches_four_test_reference(tol):
    for curve in EXAMPLE_CURVES:
        whole, steps = sf.classify_curve(curve, tol)
        expected = [reference_classify_step(curve, k, tol) for k in range(1, len(curve) - 1)]
        assert steps == expected
        assert [sf.classify_step(curve, k, tol) for k in range(1, len(curve) - 1)] == expected
        first = all(s in (HukuharaClass.FIRST_TYPE, HukuharaClass.BOTH) for s in expected)
        second = all(s in (HukuharaClass.SECOND_TYPE, HukuharaClass.BOTH) for s in expected)
        assert (whole in (HukuharaClass.FIRST_TYPE, HukuharaClass.BOTH)) == first
        assert (whole in (HukuharaClass.SECOND_TYPE, HukuharaClass.BOTH)) == second


# ------------------------------------------------------------------- subtangent

def assert_same_interval(res, ref):
    assert res.feasible == ref[0]
    assert bits(res.lam_min) == bits(ref[1])
    assert bits(res.lam_max) == bits(ref[2])


def test_subtangent_matches_loop_on_random_cone_pairs():
    rng = np.random.default_rng(101)
    for n in (8, 64, 257):
        grid = sf.DirectionGrid(n)
        for _ in range(40):
            sigma = sf.random_cone_sample(grid, rng)
            other = sf.random_cone_sample(grid, rng)
            for v in (
                other.values - sigma.values,
                other.values,
                -other.values,
                rng.normal(size=n),
            ):
                for tol in (None, 1e-6):
                    ref = reference_subtangent(v, sigma, tol)
                    assert_same_interval(sf.subtangent_feasible(v, sigma, tol), ref)


def test_subtangent_matches_loop_on_flat_margin_violation():
    grid = sf.DirectionGrid(64)
    sigma = sf.support_of_polygon(sf.ConvexPolygon.box((-1, 1), (-2, 0)), grid)
    v = np.zeros(64)
    v[5] = 1.0  # margin -2cos(delta) at index 5, where the box has no edge
    assert abs(roll_margins(sigma.values, grid)[5]) <= 1e-12
    ref = reference_subtangent(v, sigma)
    assert ref[0] is False
    assert_same_interval(sf.subtangent_feasible(v, sigma), ref)
