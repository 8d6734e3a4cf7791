from unittest import mock

import numpy as np
import pytest

import setflow as sf
from setflow import HukuharaClass, support

G64 = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
RECTS = {
    1: sf.ConvexPolygon.box((2, 3), (1, 2)),
    2: sf.ConvexPolygon.box((0, 3.5), (-1.5, 2.5)),
    3: sf.ConvexPolygon.box((-1.5, 3.5), (-0.5, 0)),
}


def sup(poly, grid=G64):
    return sf.support_of_polygon(poly, grid)


def box(xr, yr):
    return sup(sf.ConvexPolygon.box(xr, yr))


def relax_curve(a0, times):
    return sf.relaxation_curve(a0, Q, times, G64)


# ------------------------------------------------------------ hukuhara difference

def test_box_difference():
    c = sf.hukuhara_difference(box((0, 3), (0, 3)), box((0, 1), (0, 1)))
    assert c is not None
    assert np.max(np.abs(c.values - box((0, 2), (0, 2)).values)) < 1e-12


def test_self_difference_is_origin():
    s = sup(RECTS[1])
    c = sf.hukuhara_difference(s, s)
    assert c is not None and np.all(c.values == 0.0)


def test_wide_rectangle_difference_fails():
    # Q minus the width-5 rectangle: widths (2,2) do not dominate (5, 0.5)
    assert sf.hukuhara_difference(sup(Q), sup(RECTS[3])) is None


def test_existence_matches_interval_criterion():
    rng = np.random.default_rng(29)
    for _ in range(300):
        ax = np.sort(rng.uniform(-3, 3, 2))
        ay = np.sort(rng.uniform(-3, 3, 2))
        bx = np.sort(rng.uniform(-3, 3, 2))
        by = np.sort(rng.uniform(-3, 3, 2))
        a = box(tuple(ax), tuple(ay))
        b = box(tuple(bx), tuple(by))
        predicted = (ax[1] - ax[0] >= bx[1] - bx[0]) and (ay[1] - ay[0] >= by[1] - by[0])
        c = sf.hukuhara_difference(a, b)
        assert (c is not None) == predicted
        if c is not None:
            recomposed = sf.minkowski_add(b, c)
            assert np.max(np.abs(recomposed.values - a.values)) <= 8 * np.spacing(
                np.max(np.abs(a.values))
            )


# ---------------------------------------------------------- quotients and classes

def test_affine_curve_quotients_exact():
    base = sup(RECTS[1])
    growth = sup(Q)
    times = np.linspace(0.0, 2.0, 5)
    curve = sf.SetCurve(G64, times, [base.values + t * growth.values for t in times])
    for k in range(1, 4):
        fwd, bwd = sf.difference_quotients(curve, k)
        assert np.max(np.abs(fwd.values - growth.values)) < 1e-12
        assert np.max(np.abs(bwd.values - growth.values)) < 1e-12
        assert (fwd - bwd).norm_inf < 1e-12


def test_curve_rejects_one_out_of_cone_row():
    good = sup(Q).values
    bad = box((0, 1), (0, 2)).values.copy()
    bad[5] -= 0.5
    with pytest.raises(sf.NotInCone) as stacked:
        sf.SetCurve(G64, [0.0, 1.0, 2.0], [good, bad, good])
    with pytest.raises(sf.NotInCone) as single:
        sf.SupportSample(G64, bad)
    got, want = stacked.value, single.value
    assert (got.index, got.margin, got.tol) == (want.index, want.margin, want.tol)
    # a looser tolerance for that row alone lets it through
    tol = np.array([1e-9, 1.0, 1e-9])
    assert np.array_equal(sf.SetCurve(G64, [0.0, 1.0, 2.0], [good, bad, good], tol).limits, tol)


def test_reversal_keeps_each_row_tolerance():
    # the middle row is 5e-9 outside the cone: accepted at 1e-8, not at default_tol
    good = sup(Q).values
    loose = good.copy()
    loose[7] -= 5e-9  # the margins around it were zero: u_6..u_8 meet one corner
    curve = sf.SetCurve(G64, [0.0, 1.0, 2.0], [good, loose, good], np.array([1e-9, 1e-8, 1e-9]))
    back = sf.time_reverse(curve)
    assert np.array_equal(back.values, curve.values[::-1])
    assert np.array_equal(back.limits, curve.limits[::-1])
    with pytest.raises(sf.NotInCone):
        sf.SetCurve(G64, [0.0, 1.0, 2.0], [good, loose, good])


def test_curve_samples_are_its_rows_without_a_second_cone_test():
    curve = relax_curve(RECTS[1], np.linspace(0, 4, 17))
    with mock.patch.object(support, "_require_in_cone", side_effect=AssertionError):
        samples = curve.samples
    assert len(samples) == len(curve)
    for s, row in zip(samples, curve.values):
        assert np.array_equal(s.values, row) and not s.values.flags.writeable
    assert curve.samples is samples


def test_relaxation_quotients_approach_derivative():
    h = 1e-4
    t0 = 0.5
    curve = relax_curve(RECTS[1], [t0 - h, t0, t0 + h])
    fwd, _ = sf.difference_quotients(curve, 1)
    exact = np.exp(-t0) * (sup(Q).values - sup(RECTS[1]).values)
    assert np.max(np.abs(fwd.values - exact)) < 5 * h


def test_constant_curve_zero_quotients():
    curve = sf.SetCurve(G64, [0.0, 1.0, 2.0], [sup(Q).values] * 3)
    fwd, bwd = sf.difference_quotients(curve, 1)
    assert np.all(fwd.values == 0.0) and np.all(bwd.values == 0.0)
    assert sf.classify_step(curve, 1) is HukuharaClass.BOTH


def test_boundary_index_rejected():
    curve = relax_curve(RECTS[1], np.linspace(0, 4, 17))
    with pytest.raises(IndexError):
        sf.difference_quotients(curve, 0)
    with pytest.raises(IndexError):
        sf.classify_step(curve, len(curve) - 1)


@pytest.mark.parametrize(
    "which,expected",
    [
        (1, HukuharaClass.FIRST_TYPE),
        (2, HukuharaClass.SECOND_TYPE),
        (3, HukuharaClass.NEITHER),
    ],
)
def test_relaxation_classification(which, expected):
    curve = relax_curve(RECTS[which], np.linspace(0, 4, 17))
    whole, steps = sf.classify_curve(curve)
    assert whole is expected
    assert all(s is expected for s in steps)


# ------------------------------------------------------------------ time reversal

def _random_curve(rng, length=7):
    times = np.cumsum(rng.uniform(0.1, 1.0, length))
    samples = [sf.random_cone_sample(G64, rng).values for _ in range(length)]
    return sf.SetCurve(G64, times, samples)


def test_double_reverse_is_identity():
    rng = np.random.default_rng(31)
    c = _random_curve(rng)
    back = sf.time_reverse(sf.time_reverse(c))
    assert np.array_equal(back.times, c.times)
    for s, t in zip(back.samples, c.samples):
        assert np.array_equal(s.values, t.values)


def test_reversal_swaps_first_and_second():
    swap = {
        HukuharaClass.FIRST_TYPE: HukuharaClass.SECOND_TYPE,
        HukuharaClass.SECOND_TYPE: HukuharaClass.FIRST_TYPE,
        HukuharaClass.BOTH: HukuharaClass.BOTH,
        HukuharaClass.NEITHER: HukuharaClass.NEITHER,
    }
    rng = np.random.default_rng(37)
    for _ in range(30):
        c = _random_curve(rng)
        r = sf.time_reverse(c)
        m = len(c) - 1
        for k in range(1, m):
            assert sf.classify_step(r, m - k) is swap[sf.classify_step(c, k)]


def test_reversed_forward_quotient_negates_backward():
    rng = np.random.default_rng(41)
    c = _random_curve(rng)
    r = sf.time_reverse(c)
    m = len(c) - 1
    for k in range(1, m):
        fwd_r, _ = sf.difference_quotients(r, m - k)
        _, bwd = sf.difference_quotients(c, k)
        assert np.array_equal(fwd_r.values, -bwd.values)


def test_constant_curve_reversal_stays_both():
    curve = sf.SetCurve(G64, [0.0, 1.0, 2.0], [sup(Q).values] * 3)
    assert sf.classify_step(curve, 1) is HukuharaClass.BOTH
    assert sf.classify_step(sf.time_reverse(curve), 1) is HukuharaClass.BOTH


# ----------------------------------------------------------- width monotonicity

def widths_of(curve):
    """Directional widths s_i + s_{i + n/2} of every sample, one row each."""
    return curve.values + np.roll(curve.values, -(G64.n // 2), axis=1)


def test_first_type_widths_grow():
    base = sup(RECTS[1])
    growth = sup(Q)
    times = np.linspace(0.0, 2.0, 6)
    curve = sf.SetCurve(G64, times, [base.values + t * growth.values for t in times])
    whole, _ = sf.classify_curve(curve)
    assert whole is HukuharaClass.FIRST_TYPE
    widths = widths_of(curve)
    assert np.all(np.diff(widths, axis=0) >= -1e-12)


def test_second_type_widths_shrink():
    curve = relax_curve(RECTS[2], np.linspace(0, 4, 9))
    widths = widths_of(curve)
    assert np.all(np.diff(widths, axis=0) <= 1e-12)


# ------------------------------------------------------- second-type differentials

def test_second_type_differential_of_shrinking_curve():
    curve = relax_curve(RECTS[2], np.linspace(0, 4, 9))
    fwd, bwd = sf.difference_quotients(curve, 1)
    d = 0.5 * (fwd + bwd)
    s = sf.second_type_differential(d)
    assert s is not None
    # the differential shrinks toward a point as the state approaches Q
    late_fwd, late_bwd = sf.difference_quotients(curve, 7)
    late = sf.second_type_differential(0.5 * (late_fwd + late_bwd))
    assert late.norm_inf < s.norm_inf


def test_second_type_differential_missing_for_growth():
    curve = relax_curve(RECTS[1], np.linspace(0, 4, 9))
    fwd, _ = sf.difference_quotients(curve, 1)
    assert sf.second_type_differential(fwd) is None
