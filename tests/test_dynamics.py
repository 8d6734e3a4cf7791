import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setflow as sf
from setflow.cli import _check_osl, _check_subtangent
from setflow.dynamics import osl_rows
from setflow.errors import NonFiniteValue
from setflow.sampling import rectangle_pairs
from setflow.support import default_tol

G64 = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
A1 = sf.ConvexPolygon.box((2, 3), (1, 2))


def sup(poly, grid=G64):
    return sf.support_of_polygon(poly, grid)


SQ = sup(Q)
RELAX = sf.relax_to(SQ)


# -------------------------------------------------------------------- subtangent

def test_relaxation_field_always_feasible_lambda_one():
    rng = np.random.default_rng(43)
    for _ in range(50):
        sigma = sf.random_cone_sample(G64, rng)
        feasible, lam_min, lam_max = sf.subtangent_feasible(
            RELAX.eval(0.0, sigma.values), sigma.values, G64
        )
        assert feasible and lam_min <= 1.0 <= lam_max


def test_cone_element_feasible_at_zero():
    v = sf.SupportDelta(G64, sup(sf.ConvexPolygon.box((0, 1), (0, 2))).values)
    feasible, lam_min, _ = sf.subtangent_feasible(v.values, sup(A1).values, G64)
    assert feasible and lam_min == 0.0


def test_flat_direction_infeasibility():
    # the segment support is flat away from its normals (zero margin), and
    # the negated square support is strictly concave at the face normals,
    # so no lambda can repair the violation there
    segment = sf.ConvexPolygon.from_points([[-1, 0], [1, 0]])
    sigma = sup(segment)
    v = sf.SupportDelta(G64, -SQ.values)
    feasible, _, _ = sf.subtangent_feasible(v.values, sigma.values, G64)
    assert not feasible
    # brute-force lambda sweep confirms
    assert not any(
        sf.is_in_cone(v.values + lam * sigma.values, G64)
        for lam in np.linspace(0.0, 50.0, 501)
    )


def test_a_row_with_a_nan_or_infinite_entry_is_infeasible():
    # v with a NaN entry was feasible, (True, 0.0, inf): the bounds skipped its NaN margins
    grid, at3 = sf.DirectionGrid(8), np.arange(8) == 3
    square = sup(Q, grid).values
    v = np.array([np.where(at3, np.nan, 0.0), *np.zeros((3, 8))])
    sigma = np.array([square, *(np.where(at3, bad, square) for bad in (np.nan, np.inf, -np.inf))])
    for rows in (np.s_[:], *range(4)):  # the stack, then each row alone
        feasible, lam_min, lam_max = sf.subtangent_feasible(v[rows], sigma[rows], grid)
        assert not np.any(feasible) and np.isnan(lam_min).all() and np.isnan(lam_max).all()


def test_rows_decided_infeasible_warn_nothing():
    # an infinite entry of v gave inf - inf in -tol - a, and huge v and sigma whose margins
    # both overflow gave inf / inf; warnings fail every test, so these calls would raise
    grid, at3 = sf.DirectionGrid(8), np.arange(8) == 3
    v = np.where(at3, np.inf, 0.0)
    assert sf.subtangent_feasible(v, sup(Q, grid).values, grid)[0] == np.False_
    for n in (3, 4):
        grid, huge = sf.DirectionGrid(n), np.full(n, 1e308)  # every margin is +-inf
        feasible, lam_min, lam_max = sf.subtangent_feasible(np.array([huge, -huge]), huge, grid)
        assert not feasible.any() and np.isnan(lam_min).all() and np.isnan(lam_max).all()


# -------------------------------------------------------------- existence horizon

def test_horizon_at_fixed_point():
    c, b = sf.existence_horizon(RELAX, SQ, r=1.0, T=10.0, budget=32, seed=3)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(min(10.0, 1.0 / c), abs=1e-15)


def test_horizon_degenerate_field():
    zero = sf.constant_field(sf.SupportDelta(G64, np.zeros(64)))
    assert sf.existence_horizon(zero, SQ, r=1.0, T=7.0) == (0.0, 7.0)


def test_horizon_constant_field():
    vals = np.zeros(64)
    vals[:] = 2.0
    f = sf.constant_field(sf.SupportDelta(G64, vals))
    c, b = sf.existence_horizon(f, SQ, r=1.0, T=10.0, budget=8)
    assert c == 2.0 and b == 0.5


@st.composite
def ball_bases(draw):
    """(base, r, rng): base a point, segment, random polygon or box much narrower
    than r, on n = 4..1024 directions, with r from 1e-3 to 1e3."""
    grid = sf.DirectionGrid(draw(st.integers(4, 1024)))
    r = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.uniform(-2.0, 2.0, 2)
    kind = draw(st.sampled_from(["point", "segment", "polygon", "narrow_box"]))
    if kind == "narrow_box":
        w = r * 10.0 ** draw(st.floats(-6.0, -1.0))
        poly = sf.ConvexPolygon.box((center[0] - w, center[0] + w), (center[1] - w, center[1] + w))
    else:
        count = {"point": 1, "segment": 2, "polygon": int(rng.integers(3, 9))}[kind]
        poly = sf.ConvexPolygon.from_points(center + rng.uniform(-1.0, 1.0, (count, 2)))
    return sf.support_of_polygon(poly, grid), r, rng


@given(ball_bases(), st.integers(0, 7))
def test_ball_draws_lie_in_the_cone_ball(case, count):
    base, r, rng = case
    draws = sf.ball_draws(base, r, count, rng)  # a point base warns nothing (warnings fail)
    assert draws.shape == (count, base.grid.n)
    assert count == 0 or np.any(draws != base.values)
    one = sf.perturb_in_ball(base, r, rng)
    assert isinstance(one, sf.SupportSample)
    for rows in (draws, one.values[None]):
        assert np.all(sf.is_in_cone(rows, base.grid))  # at default_tol, nothing widened
        assert np.max(np.abs(rows - base.values), initial=0.0) <= r
    if count >= 2:  # both sides of the ball: a shrunk draw and a widened one
        below = draws <= base.values + default_tol(base.values)
        assert np.any(np.all(below, axis=1))
        assert np.any(np.all(draws >= base.values, axis=1))


def test_ball_draws_memory_is_bounded():
    # 8 points per Minkowski draw as one (count, 8, n) product would peak near 66 MB
    count, grid = 2000, sf.DirectionGrid(1024)
    sigma0 = sup(A1, grid)
    tracemalloc.start()
    try:
        draws = sf.ball_draws(sigma0, 1.0, count, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (count, grid.n)
    assert peak < 4 * count * grid.n * 8
    # the sampled checks hold a few budget * n stacks at once (measured 4.0x, 3.0x and,
    # for the stacked subtangent pass with its field values and margins, 5.5x; osl, 5.3x,
    # peaks in its stacked check of the pairs; rectangle_pairs draws them at 4.1x: the
    # (budget, 2, n) result and one more stack of its size)
    budget, relax = 1024, sf.relax_to(sup(Q, grid))
    cfg = SimpleNamespace(field=relax, grid=grid, initial=A1, r=1.0, T=1.0, samples=budget,
                          omega=1.0, output={})
    runs = [
        (sf.existence_horizon, (relax, sigma0, 1.0, 1.0, budget), 4.5),
        (sf.lipschitz_estimate, (relax, sigma0, 1.0, 1.0, budget), 4.5),
        (_check_subtangent, (cfg, np.random.default_rng(0)), 6.0),
        (_check_osl, (cfg, np.random.default_rng(0)), 5.75),
        (rectangle_pairs, (grid, 1.0, budget, np.random.default_rng(0)), 4.5),
    ]
    for check, args, factor in runs:
        tracemalloc.start()
        try:
            check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < factor * budget * grid.n * 8, check.__name__


@pytest.mark.parametrize("n", [16, 64, 256])
def test_horizon_sees_a_shift_blind_field(n):
    # f cancels constant shifts, so sigma0 + r shows it nothing; the segment S
    # from (-1/2, 0) to (1/2, 0) gives a ball point sigma0 + sigma_S it must not miss
    grid = sf.DirectionGrid(n)
    f = sf.RhsField(grid, lambda t, y: y - np.roll(y, 1, axis=-1))
    sigma0 = sup(sf.ConvexPolygon.box((-0.01, 0.01), (-0.01, 0.01)), grid)
    segment = sup(sf.ConvexPolygon.from_points([[-0.5, 0.0], [0.5, 0.0]]), grid)
    floor = float(np.max(np.abs(f.eval(0.0, sigma0.values + segment.values))))
    for seed in range(30):
        c, _ = sf.existence_horizon(f, sigma0, r=1.0, T=1.0, seed=seed)
        assert c >= floor


# -------------------------------------------------------------------------- osl

def test_relaxation_field_osl_satisfied():
    rng = np.random.default_rng(47)
    omega = 1.0
    checked = 0
    while checked < 100:
        a = sf.random_rectangle(rng)
        b = sf.random_rectangle(rng)
        row = sf.osl_check(RELAX, a, b, 0.0, omega)
        if row is None:
            continue
        checked += 1
        assert row[5]


def test_translation_invariant_field_on_points():
    f = sf.constant_field(sf.SupportDelta(G64, np.ones(64)))
    row = sf.osl_check(
        f,
        sf.ConvexPolygon.point((2, 0)),
        sf.ConvexPolygon.point((0, 0)),
        0.0,
        0.0,
    )
    assert row[5]


def test_expanding_field_violates_zero_growth():
    f = sf.expansion_field(G64, 1.0)
    _, _, index, lhs, bound, satisfied = sf.osl_check(f, A1, Q, 0.0, 0.0)
    assert not satisfied
    # the violated inequality gap matches a direct evaluation at the witness index, on E+
    # of g = sigma_A - sigma_B as d, on E- as -d
    sa, sb2 = sup(A1).values, SQ.values
    g = sa[index] - sb2[index]
    expected = g if g > 0 else -g
    assert lhs == pytest.approx(expected, abs=1e-12)
    assert lhs > bound


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([8, 64, 256]),
    st.sampled_from(["relax_to", "expand", "constant"]),
    st.sampled_from(["box", "polygon", "point"]),
    st.floats(0.0, 2.0),
    st.floats(-1.0, 3.0),
)
def test_osl_check_is_the_osl_row_of_its_pair(seed, n, kind, shape, t, omega):
    grid, rng = sf.DirectionGrid(n), np.random.default_rng(seed)
    if kind == "relax_to":
        field = sf.relax_to(sup(sf.random_rectangle(rng), grid))
    elif kind == "expand":
        field = sf.expansion_field(grid, rng.uniform(-2.0, 3.0))
    else:
        field = sf.constant_field(sf.SupportDelta(grid, rng.standard_normal(n)))
    if shape == "box":
        a, b = sf.random_rectangle(rng), sf.random_rectangle(rng)
    elif shape == "polygon":
        a, b = (sf.ConvexPolygon.from_points(rng.uniform(-2.0, 2.0, (int(rng.integers(3, 9)), 2)))
                for _ in range(2))
    else:
        a, b = (sf.ConvexPolygon.point(rng.uniform(-2.0, 2.0, 2)) for _ in range(2))
    pair = np.array([[sup(a, grid).values, sup(b, grid).values]])
    [want] = osl_rows(field, pair, [t], omega)
    got = sf.osl_check(field, a, b, t, omega)
    assert type(got) is tuple and len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y)
        assert np.array_equal(np.float64(x).view(np.uint64), np.float64(y).view(np.uint64))


def test_degenerate_pair_rejected():
    assert sf.osl_check(RELAX, Q, Q, 0.0, 1.0) is None


@pytest.mark.parametrize("mpos", [1.0, 0.0])
def test_osl_row_nan_at_an_extremal_index_is_a_violation(mpos):
    # g = x - y = (4, 0, 0, 0, -4, 0, 0, 0): E+ = {0}, E- = {4}; d = mpos at 0, NaN at 4
    grid = sf.DirectionGrid(8)
    xy = np.zeros((2, 8))
    xy[0, 0], xy[1, 4] = 4.0, 4.0
    poison = np.array([mpos / 4.0, 1, 1, 1, np.nan, 1, 1, 1])
    field = sf.RhsField(grid, lambda t, y: poison * y)
    [(t, dist, index, lhs, bound, satisfied)] = osl_rows(field, xy[None], [0.5], 1.0)
    assert (t, dist, index, bound, satisfied) == (0.5, 4.0, 4, 4.0, False)
    assert math.isnan(lhs)


def test_osl_row_skips_coinciding_sets_and_keeps_the_lowest_index():
    grid = sf.DirectionGrid(16)
    square = sup(Q, grid).values
    shifted = sup(sf.ConvexPolygon.box((0, 2), (-1, 1)), grid).values
    pairs = np.array([[square, square], [shifted, square], [square, shifted]])
    field, omega = sf.expansion_field(grid, 2.0), 1.5
    rows = osl_rows(field, pairs, [0.0, 0.0, 0.0], omega)
    assert len(rows) == 2  # the first pair is skipped
    # g = +-u_x: E+ and E- are {0} and {8} (or {8} and {0}), d = 2 g gives lhs 2 at both,
    # and the lower index wins the tie
    assert rows[0] == rows[1] == (0.0, 1.0, 0, 2.0, 1.5, False)
    assert osl_rows(field, pairs[:0], [], omega) == []


def test_osl_rows_slack_is_the_larger_of_the_tolerances_of_x_y_and_of_d():
    # x, y of norm 1 give a slack of 1e-9, d = 1e6 g one of 1e-3: lhs - bound = 1e-6 is let pass
    grid = sf.DirectionGrid(8)
    pairs = np.zeros((1, 2, 8))
    pairs[0, 0, 0] = 1.0
    field = sf.expansion_field(grid, 1e6)
    assert osl_rows(field, pairs, [0.0], 1e6 - 1e-6)[0][5] is True
    assert osl_rows(field, pairs, [0.0], 1e6 - 1e-2)[0][5] is False


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_osl_row_with_a_non_finite_d_off_the_extremal_sets_is_a_violation(bad):
    # g = x - y peaks at index 0 alone (E+ = {0}, E- empty), where d = 0, so lhs = 0 is well
    # within the bound; d is bad at indices 1 and 7 only, which the slack skipped (NaN) or
    # turned into an infinite slack (+-inf), so the row passed
    grid = sf.DirectionGrid(8)
    x, y = (sup(sf.ConvexPolygon.box(xs, (-1, 1)), grid).values for xs in ((-1, 10), (-1, 1)))
    field = sf.RhsField(grid, lambda t, s: np.where((s > 5) & (s < 9), bad, 0.0))
    assert osl_rows(field, np.array([[x, y]]), [0.0], 1.0) == [(0.0, 9.0, 0, 0.0, 9.0, False)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_osl_rows_raise_on_a_non_finite_row(bad):
    # one poisoned entry of one pair: its g is not finite, as in the per-pair check
    grid = sf.DirectionGrid(8)
    pairs = np.zeros((3, 2, 8))
    pairs[:, 0, 0] = 1.0
    pairs[2, 1, 5] = bad
    with pytest.raises(NonFiniteValue, match="non-finite values of g"):
        osl_rows(sf.expansion_field(grid, 1.0), pairs, [0.0, 0.5, 1.0], 1.0)
    pairs[2, :, 5] = np.inf  # inf - inf is NaN
    with pytest.raises(NonFiniteValue), np.errstate(invalid="ignore"):
        osl_rows(sf.expansion_field(grid, 1.0), pairs, [0.0, 0.5, 1.0], 1.0)


# -------------------------------------------------------------------- integrate

def test_rk4_matches_closed_form():
    traj = sf.integrate(RELAX, sup(A1), T=4.0, h=0.01)
    for t, state in zip(traj.times, traj.states):
        exact = sf.relaxation_closed_form(A1, Q, float(t), G64)
        assert np.max(np.abs(state - exact.values)) <= 1e-6


def test_zero_field_constant_trajectory():
    zero = sf.constant_field(sf.SupportDelta(G64, np.zeros(64)))
    traj = sf.integrate(zero, SQ, T=1.0, h=0.1)
    assert np.all(traj.states == SQ.values)
    assert np.all(traj.residuals <= 8 * np.spacing(SQ.norm_inf))


def test_target_is_fixed_point():
    traj = sf.integrate(RELAX, SQ, T=2.0, h=0.05)
    spread = np.max(np.abs(traj.states - SQ.values))
    assert spread <= 8 * np.spacing(SQ.norm_inf)


@pytest.mark.parametrize("T, h", [(0.0, 0.1), (1.0, -0.1), (math.nan, 0.1), (1.0, math.nan)])
def test_integrate_needs_a_positive_horizon_and_step(T, h):
    # T = nan failed converting NaN to an integer step count
    with pytest.raises(ValueError, match="must be positive"):
        sf.integrate(RELAX, SQ, T=T, h=h)


def test_final_time_hit_exactly():
    traj = sf.integrate(RELAX, sup(A1), T=1.0, h=0.3)
    assert traj.times[-1] == 1.0
    assert len(traj) == 5  # 0, .3, .6, .9, 1.0


def test_non_finite_field_raises():
    def bad(t, y):
        out = y.copy()
        out[0] = np.nan
        return out

    f = sf.RhsField(G64, bad, name="bad")
    with pytest.raises(sf.NonFiniteValue):
        sf.integrate(f, SQ, T=1.0, h=0.1)
    # the state check comes first, before any repair can see the value
    with pytest.raises(sf.NonFiniteValue, match="non-finite state at t = 0.1"):
        sf.integrate(f, SQ, T=1.0, h=0.1, policy="always")


def test_residuals_stay_tiny_with_on_violation_policy():
    traj = sf.integrate(RELAX, sup(A1), T=4.0, h=0.01, policy="on_violation")
    bound = 10 * 1e-9 * max(1.0, float(np.max(np.abs(traj.states))))
    assert float(traj.residuals.max()) <= bound
    assert not traj.regularized.any()


def test_always_policy_regularizes():
    traj = sf.integrate(RELAX, sup(A1), T=0.5, h=0.1, policy="always")
    assert traj.regularized[1:].all()
    err = np.max(
        np.abs(traj.final.values - sf.relaxation_closed_form(A1, Q, 0.5, G64).values)
    )
    assert err < 1e-4


def test_trajectory_curve_roundtrip():
    traj = sf.integrate(RELAX, sup(A1), T=1.0, h=0.25)
    curve = traj.curve()
    assert len(curve) == len(traj)
    assert np.array_equal(curve.times, traj.times)


def _denting_field():
    # pushes one support value down, driving the state out of the cone
    dent = np.zeros(64)
    dent[10] = -1.0
    return sf.constant_field(sf.SupportDelta(G64, dent))


def test_cone_leaving_field_repaired_on_violation():
    traj = sf.integrate(_denting_field(), SQ, T=0.5, h=0.1, policy="on_violation")
    assert traj.regularized[1:].any()
    for k in range(len(traj)):
        assert sf.cone_residual(traj.states[k], G64) <= 10 * 1e-9 * max(
            1.0, float(np.max(np.abs(traj.states[k])))
        )
        traj.sample(k)  # constructs without raising


def test_cone_leaving_field_never_policy_keeps_drift():
    traj = sf.integrate(_denting_field(), SQ, T=0.5, h=0.1, policy="never")
    assert not traj.regularized.any()
    assert float(traj.residuals.max()) > 1e-3
    with pytest.raises(sf.NotInCone):
        traj.final


def counted(field):
    """field with a count of its evaluations."""
    calls = [0]

    def fn(t, y):
        calls[0] += 1
        return field.fn(t, y)

    return sf.RhsField(field.grid, fn, field.name), calls


def test_field_evaluations_match_single_steps_when_no_step_or_every_step_repairs():
    """The relax_to run of the analyze benchmark never repairs, and the segment
    erosion of the repair benchmark repairs every step: both evaluate the
    field once per stage, as the step-by-step loop did (RK4 4, Euler 1)."""
    relax, calls = counted(RELAX)
    traj = sf.integrate(relax, sup(A1), T=4.0, h=0.01, method="rk4")
    assert not traj.regularized.any() and calls[0] == 4 * 400
    g = sf.DirectionGrid(1024)
    segment = np.abs(g.directions @ np.array([math.cos(0.7), math.sin(0.7)]))
    erode, calls = counted(sf.constant_field(sf.SupportDelta(g, -0.5 * segment)))
    box = sup(sf.ConvexPolygon.box((-2, 2), (-2, 2)), g)
    traj = sf.integrate(erode, box, T=0.5, h=0.01, method="euler")
    assert traj.regularized[1:].all() and calls[0] == 50


@pytest.mark.parametrize("dent, repairs", [(2e-9, 39), (3.4e-9, 66), (6e-9, 100), (1.2e-8, 200)])
def test_steps_discarded_past_repairs_at_most_double_the_evaluations(dent, repairs):
    """A one-index dent below the drift limit per step ends clean runs of
    varying length in a repair; the steps taken past each repair and then
    discarded at most double the 200 evaluations of the step-by-step loop."""
    g = sf.DirectionGrid(32)
    delta = np.zeros(32)
    delta[5] = -dent
    creep, calls = counted(sf.constant_field(sf.SupportDelta(g, delta)))
    traj = sf.integrate(creep, sup(sf.ConvexPolygon.box((-0.5, 0.5), (-0.5, 0.5)), g), T=200.0,
                        h=1.0, method="euler")
    assert int(traj.regularized.sum()) == repairs
    assert 200 <= calls[0] <= 2 * 200


def test_semigroup_consistency():
    one_shot = sf.integrate(RELAX, sup(A1), T=2.0, h=0.01)
    first = sf.integrate(RELAX, sup(A1), T=1.0, h=0.01)
    second = sf.integrate(RELAX, first.final, T=1.0, h=0.01)
    exact = sf.relaxation_closed_form(A1, Q, 2.0, G64).values
    err_one = np.max(np.abs(one_shot.final.values - exact))
    err_two = np.max(np.abs(second.final.values - exact))
    assert np.max(np.abs(second.final.values - one_shot.final.values)) <= 2 * max(
        err_one, err_two, 1e-15
    )


def test_exponential_contraction_of_pairs():
    a_alt = sf.ConvexPolygon.box((0.5, 2.0), (-0.5, 1.0))
    t1 = sf.integrate(RELAX, sup(A1), T=4.0, h=0.01)
    t2 = sf.integrate(RELAX, sup(a_alt), T=4.0, h=0.01)
    d0 = sf.hausdorff_grid(sup(A1), sup(a_alt))
    for k in range(0, len(t1), 40):
        d = float(np.max(np.abs(t1.states[k] - t2.states[k])))
        assert d == pytest.approx(d0 * math.exp(-t1.times[k]), rel=1e-6)


@pytest.mark.parametrize("method,order", [("euler", 1.0), ("rk4", 4.0)])
def test_convergence_order(method, order):
    hs = [0.08, 0.04, 0.02, 0.01]
    errs = []
    exact = sf.relaxation_closed_form(A1, Q, 1.0, G64).values
    for h in hs:
        traj = sf.integrate(RELAX, sup(A1), T=1.0, h=h, method=method)
        errs.append(float(np.max(np.abs(traj.final.values - exact))))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - order) <= 0.3


# ------------------------------------------------------------------- closed form

def test_closed_form_endpoints():
    s0 = sf.relaxation_closed_form(A1, Q, 0.0, G64)
    assert np.array_equal(s0.values, sup(A1).values)
    s_late = sf.relaxation_closed_form(A1, Q, 20.0, G64)
    gap = np.max(np.abs(s_late.values - SQ.values))
    assert gap <= 3e-9 * sf.hausdorff_grid(sup(A1), SQ)


def test_closed_form_distance_decay():
    d0 = sf.hausdorff_grid(sup(A1), SQ)
    for t in (0.3, 1.0, 2.5):
        st = sf.relaxation_closed_form(A1, Q, t, G64)
        assert sf.hausdorff_grid(st, SQ) == pytest.approx(d0 * math.exp(-t), rel=1e-12)


# -------------------------------------------------------------------- exact flow

EXPAND = {rate: sf.expansion_field(G64, rate) for rate in (0.5, -0.7)}
CONSTANT = sf.constant_field(sf.SupportDelta(G64, np.cos(3 * G64.angles) + 0.5))


def old_relaxation_values(a0, q, times, grid):
    """The closed form exact_flow replaced: exp(-t) sigma_A0 + (1 - exp(-t)) sigma_Q."""
    w = np.array([math.exp(-t) for t in times])[:, None]
    return w * sup(a0, grid).values + (1.0 - w) * sup(q, grid).values


@st.composite
def boxes_and_polygons(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return sf.random_rectangle(rng)
    return sf.ConvexPolygon.from_points(rng.uniform(-3.0, 3.0, (int(rng.integers(1, 9)), 2)))


@settings(max_examples=200)
@given(boxes_and_polygons(), boxes_and_polygons(), st.sampled_from([3, 8, 64]),
       st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5))
def test_exact_flow_of_relaxation_is_the_convex_combination(a0, q, n, ts):
    grid = sf.DirectionGrid(n)
    times = [0.0] + ts
    flow = sf.exact_flow(sf.relax_to(sup(q, grid)), sup(a0, grid).values, times)
    old = old_relaxation_values(a0, q, times, grid)
    assert np.array_equal(flow[0], old[0])
    assert np.all(np.abs(flow - old) <= default_tol(old)[:, None])


@pytest.mark.parametrize("field", [CONSTANT, *EXPAND.values()], ids=["constant", "0.5", "-0.7"])
def test_exact_flow_matches_a_fine_rk4_run(field):
    traj = sf.integrate(field, sup(A1), T=2.0, h=1 / 512, policy="never")
    exact = sf.exact_flow(field, traj.states[0], traj.times)
    assert np.max(np.abs(traj.states - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("field", [RELAX, *EXPAND.values()], ids=["relax_to", "0.5", "-0.7"])
@pytest.mark.parametrize("method, p", [("euler", 1), ("rk4", 4)])
def test_error_against_the_exact_flow_falls_by_two_to_the_order(field, method, p):
    # constant is left out: Euler and RK4 are both exact on it
    errs = []
    for h in 0.2 / 2.0 ** np.arange(6):  # 0.2 down to 0.00625
        traj = sf.integrate(field, sup(A1), T=2.0, h=h, method=method, policy="never")
        errs.append(np.max(np.abs(traj.states - sf.exact_flow(field, traj.states[0], traj.times))))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(np.abs(orders - p) <= 0.3), orders


def test_exact_flow_needs_a_declared_form_and_nonnegative_times():
    with pytest.raises(ValueError, match="declares no affine form"):
        sf.exact_flow(sf.RhsField(G64, lambda t, y: -y), SQ.values, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        sf.exact_flow(RELAX, SQ.values, [0.0, -1e-300])
    with pytest.raises(ValueError, match="nonnegative"):  # NaN rows were returned
        sf.exact_flow(RELAX, SQ.values, [0.0, math.nan])


def test_lipschitz_is_derived_from_the_declared_form():
    assert [f.name for f in dataclasses.fields(sf.RhsField)] == ["grid", "fn", "name", "affine"]
    assert (RELAX.lipschitz, CONSTANT.lipschitz) == (1.0, 0.0)
    assert (EXPAND[0.5].lipschitz, EXPAND[-0.7].lipschitz) == (0.5, 0.7)
    assert sf.RhsField(G64, lambda t, y: y).lipschitz is None
    assert len({RELAX, CONSTANT, *EXPAND.values()}) == 4  # an array offset leaves it hashable


def test_constant_field_returns_its_delta_without_a_copy():
    delta = sf.SupportDelta(G64, np.cos(3 * G64.angles))
    assert np.shares_memory(sf.constant_field(delta).eval(0.0, SQ.values), delta.values)


# -------------------------------------------------------------------- lipschitz

def test_lipschitz_of_relaxation_is_one():
    est = sf.lipschitz_estimate(RELAX, sup(A1), 1.0, 2.0, budget=50, seed=1)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_of_constant_is_zero():
    f = sf.constant_field(sf.SupportDelta(G64, np.ones(64)))
    assert sf.lipschitz_estimate(f, SQ, 0.5, 1.0, budget=20, seed=1) == 0.0


@pytest.mark.parametrize(
    "r, T", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)]
)
def test_sampled_bounds_need_a_positive_radius_and_horizon(r, T):
    # a NaN r gave existence_horizon (0.0, 1.0) and lipschitz_estimate 0.0
    for bound in (sf.existence_horizon, sf.lipschitz_estimate):
        with pytest.raises(ValueError):
            bound(RELAX, SQ, r, T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sampled_bounds_raise_on_a_field_value_they_cannot_bound(bad):
    # bad above 1.5: for NaN, existence_horizon gave c = 1.498 and lipschitz_estimate 1.0,
    # skipping the states where the field is undefined; for +-inf, c = inf, b = 0 and inf
    grid = sf.DirectionGrid(8)
    f = sf.RhsField(grid, lambda t, y: np.where(y > 1.5, bad, -y), name="bad_above")
    for bound in (sf.existence_horizon, sf.lipschitz_estimate):
        with pytest.raises(NonFiniteValue, match="field 'bad_above'"):
            bound(f, sup(Q, grid), 1.0, 1.0)


def test_lipschitz_of_double_field_is_two():
    def fn(t, y):
        return 2.0 * y - SQ.values

    f = sf.RhsField(G64, fn, name="stretch")
    assert sf.lipschitz_estimate(f, sup(A1), 3.0, 1.0, budget=50, seed=1) == pytest.approx(
        2.0, abs=1e-12
    )
