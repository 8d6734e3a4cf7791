"""Metamorphic properties of the cone test and of the one-sided Lipschitz rows from the exact
symmetries of the representation.

Support functions form a cone closed under positive scaling, and the direction
grid is symmetric under a cyclic shift (a rotation by a multiple of delta)
and under the reflection i -> -i.  A power-of-two scaling is exact in floats
away from overflow and subnormals, and the shift, the reflection and negation
only move or flip values, so each property below holds bit for bit.  The
scaled vectors reach the top of the float range, where margins overflow.
Verdicts are scale-invariant only above the max(1, |s|_inf) floor of
default_tol, so the verdict and regularize properties start at |s|_inf >= 1,
and the osl_rows scaling property keeps the pairs whose supports and distance reach 1.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow import support
from setflow.dynamics import osl_rows
from setflow.sampling import rectangle_pairs
from setflow.support import default_tol

GRID_SIZES = [3, 4, 5, 8, 16, 64, 257]


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def top_exponent(s) -> int:
    """The exponent e with 2**(e - 1) <= |s|_inf < 2**e."""
    return math.frexp(float(np.abs(s).max()))[1]


@st.composite
def vectors(draw):
    """(grid, s): a polygon's support, that support dented or raised at a few directions
    (around default_tol and far beyond it), or raw values, with |s|_inf in [1, 2**61)."""
    grid = sf.DirectionGrid(draw(st.sampled_from(GRID_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["polygon", "dented", "raw"]))
    if kind == "raw":
        s = rng.uniform(0.0, 3.0) + rng.choice([1e-6, 0.1, 1.0]) * rng.standard_normal(grid.n)
    else:
        points = rng.standard_normal((rng.integers(1, 6), 2)) + rng.uniform(-3, 3, size=2)
        s = sf.support_of_polygon(sf.ConvexPolygon.from_points(points), grid).values.copy()
    if kind == "dented":
        i = rng.integers(0, grid.n, size=rng.integers(1, 4))
        s[i] += rng.choice([-2.0, -1.0, -0.5, 0.5, 1e3]) * default_tol(s) * rng.random(len(i))
    top = draw(st.sampled_from([1.0, 1.5, 1.9375]))  # near 2, the largest k nears the float max
    return grid, np.ldexp(top * (s / np.abs(s).max()), draw(st.integers(0, 60)))


@st.composite
def scaled(draw):
    """(grid, s, k): 2**k s is finite, with |2**k s|_inf >= 1 too; the top of the range often."""
    grid, s = draw(vectors())
    e = top_exponent(s)  # |s|_inf < 2**e: 2**k s is finite for k <= 1024 - e
    return grid, s, draw(st.integers(1 - e, 1024 - e) | st.sampled_from([1024 - e, 1023 - e]))


@settings(max_examples=300)
@given(scaled())
def test_margins_scale_by_powers_of_two_bit_for_bit(case):
    grid, s, k = case
    with np.errstate(over="ignore", invalid="ignore"):  # the unscaled pass of a large row
        got = sf.cone_margins(np.ldexp(s, k), grid)
        expected = np.ldexp(sf.cone_margins(s, grid), k)  # +-inf beyond the float range
    assert np.array_equal(bits(got), bits(expected))


@settings(max_examples=300)
@given(scaled())
def test_cone_verdict_is_scale_invariant_above_the_tolerance_floor(case):
    grid, s, k = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert sf.is_in_cone(np.ldexp(s, k), grid) == sf.is_in_cone(s, grid)


@settings(max_examples=200)
@given(scaled(), st.integers(0, 2**16))
def test_shift_and_reflection_permute_the_margins(case, r):
    grid, s, k = case
    s, r = np.ldexp(s, k), r % grid.n
    reflect = -np.arange(grid.n) % grid.n  # index i -> -i
    with np.errstate(over="ignore", invalid="ignore"):
        m = sf.cone_margins(s, grid)
        shifted = sf.cone_margins(np.roll(s, r), grid)
        reflected = sf.cone_margins(s[reflect], grid)
    assert np.array_equal(bits(shifted), bits(np.roll(m, r)))
    assert np.array_equal(bits(reflected), bits(m[reflect]))


@settings(max_examples=200)
@given(scaled())
def test_negation_negates_the_margins(case):
    # equal as numbers: x - x is +0.0 for either sign of x, so a zero margin stays +0.0
    grid, s, k = case
    s = np.ldexp(s, k)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(sf.cone_margins(-s, grid), -sf.cone_margins(s, grid))


def regularized(s, grid):
    """The values of regularize(s, grid), or None for an empty intersection."""
    try:
        return sf.regularize(s, grid).values
    except sf.EmptyIntersection:
        return None


@settings(max_examples=150)
@given(scaled())
def test_regularize_keeps_its_bits_under_power_of_two_scaling(case):
    # a repair whose pruned deque pass comes out empty takes the shifted retry, which scales only
    # where max(|s|_inf, r0) >= 1 (the test below); the property covers the pass-through and
    # the first pass
    grid, s, k = case
    k = min(k, 996 - top_exponent(s))  # |2**k s|_inf < 2**996 < 1e300
    with mock.patch.object(support, "_deque_pass", wraps=support._deque_pass) as spy:
        expected = regularized(s, grid)
    assume(spy.call_count <= 1)
    got = regularized(np.ldexp(s, k), grid)
    assert (got is None) == (expected is None)
    if got is not None:
        assert np.array_equal(bits(got), bits(np.ldexp(expected, k)))


def test_regularize_retry_keeps_its_bits_under_power_of_two_scaling():
    # a noisy point at n 16: rounding empties the pruned pass, so both calls retry
    s = np.array([
        0.2675532581456768, -0.12461584902587695, -0.4978131721666209, -0.79522295253264,
        -0.9715669662569631, -0.9999992355561585, -0.8761904054249555, -0.6189895287536069,
        -0.2675531074835725, 0.12461584902587682, 0.4978131721666209, 0.7952229525326396,
        0.9715672470895804, 1.0, 0.8761904054249556, 0.6189895287536074,
    ])
    grid, k = sf.DirectionGrid(16), 580
    with mock.patch.object(support, "_deque_pass", wraps=support._deque_pass) as spy:
        expected = sf.regularize(s, grid).values
    if spy.call_count != 2:
        pytest.fail("the example no longer takes the retry")
    got = sf.regularize(np.ldexp(s, k), grid).values
    assert np.array_equal(bits(got), bits(np.ldexp(expected, k)))


@st.composite
def osl_stacks(draw):
    """(kind, grid, pairs, ts, offset, rate, omega): a rectangle_pairs stack x10 and the declared
    offset of a relax_to (a box x10), expand (0.0) or constant (normal x10) field."""
    grid = sf.DirectionGrid(draw(st.sampled_from([5, 7, 8, 16, 64, 256])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["relax_to", "expand", "constant"]))
    pairs, ts = rectangle_pairs(grid, 2.0, 10, rng)
    pairs *= 10.0
    offset = {"relax_to": pairs[-1, 0], "expand": 0.0,
              "constant": 10.0 * rng.standard_normal(grid.n)}[kind]
    rate, omega = rng.uniform(-2.0, 3.0), rng.uniform(-1.0, 3.0)
    return kind, grid, pairs[:-1], ts[:-1].tolist(), offset, rate, omega


def osl_field(kind, grid, offset, rate):
    if kind == "relax_to":
        return sf.relax_to(sf.SupportSample(grid, offset))
    if kind == "expand":
        return sf.expansion_field(grid, rate)
    return sf.constant_field(sf.SupportDelta(grid, offset))


@settings(max_examples=50)
@given(osl_stacks(), st.integers(1, 39))
def test_osl_rows_scale_by_powers_of_two_bit_for_bit(case, k):
    kind, grid, pairs, ts, offset, rate, omega = case
    dist = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=-1)
    above = (dist >= 1.0) & (np.abs(pairs).max(axis=(1, 2)) >= 1.0)  # above default_tol's floor
    pairs, ts = pairs[above], [t for t, keep in zip(ts, above) if keep]
    rows = osl_rows(osl_field(kind, grid, offset, rate), pairs, ts, omega)
    scaled = osl_rows(osl_field(kind, grid, np.ldexp(offset, k), rate), np.ldexp(pairs, k), ts,
                      omega)
    assert len(scaled) == len(rows)
    for (t, dist, index, lhs, bound, _), got in zip(rows, scaled):
        assert (got[0], got[2]) == (t, index)
        assert np.array_equal(bits([got[1], got[3], got[4]]), bits(np.ldexp([dist, lhs, bound], k)))


@settings(max_examples=100)
@given(osl_stacks(), st.integers(0, 2**16))
def test_osl_rows_are_invariant_under_a_cyclic_shift(case, r):
    kind, grid, pairs, ts, offset, rate, omega = case
    r = r % grid.n
    rows = osl_rows(osl_field(kind, grid, offset, rate), pairs, ts, omega)
    shifted = osl_rows(osl_field(kind, grid, np.roll(offset, r), rate),
                       np.roll(pairs, r, axis=-1), ts, omega)
    assert len(shifted) == len(rows)
    for row, got in zip(rows, shifted):
        same = [0, 1, 3, 4, 5]  # t, distance, lhs, bound, satisfied: the index moves
        assert np.array_equal(bits([got[i] for i in same]), bits([row[i] for i in same]))
