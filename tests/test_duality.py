import math

import numpy as np
import pytest

import setflow as sf

G64 = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
A1 = sf.ConvexPolygon.box((2, 3), (1, 2))


def sup(poly, grid=G64):
    return sf.support_of_polygon(poly, grid)


def delta(p, q, grid=G64):
    return sup(p, grid) - sup(q, grid)


def as_delta(s):
    return sf.SupportDelta(s.grid, s.values)


def radius(p):
    return float(np.max(np.hypot(p.vertices[:, 0], p.vertices[:, 1])))


def random_delta(rng, grid):
    return sf.SupportDelta(grid, rng.standard_normal(grid.n) * rng.uniform(0.1, 3.0))


# ----------------------------------------------------------------- extremal sets

def test_zero_function_full_extremal_sets():
    pos, neg = sf.extremal_sets(delta(Q, Q))
    assert pos == tuple(range(64))
    assert neg == tuple(range(64))


def test_strict_subset_has_empty_positive():
    pos, neg = sf.extremal_sets(delta(sf.ConvexPolygon.point((0, 0)), Q))
    assert pos == ()
    # the farthest corners of Q are the diagonal directions
    assert set(neg) == {8, 24, 40, 56}


def test_cosine_extrema():
    pos, neg = sf.extremal_sets(as_delta(sup(sf.ConvexPolygon.point((1, 0)))))
    assert pos == (0,)
    assert neg == (32,)


# --------------------------------------------------------------- semi inner product

def test_diagonal_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = random_delta(rng, G64)
        assert sf.semi_inner(f, f) == pytest.approx(f.norm_inf**2, rel=1e-14)


def test_worked_cosine_example():
    g = as_delta(sup(sf.ConvexPolygon.point((1, 0))))
    f = as_delta(sup(Q))
    # f is 1 at both extrema of g, so the pairing is 1 * min(1, -1) = -1
    assert sf.semi_inner(f, g) == pytest.approx(-1.0)


def test_zero_g_gives_zero():
    rng = np.random.default_rng(5)
    f = random_delta(rng, G64)
    zero = sf.SupportDelta(G64, np.zeros(64))
    assert sf.semi_inner(f, zero) == 0.0


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f, g = random_delta(rng, G64), random_delta(rng, G64)
        assert abs(sf.semi_inner(f, g)) <= f.norm_inf * g.norm_inf + 1e-12


def test_positive_homogeneity_in_g():
    rng = np.random.default_rng(11)
    for _ in range(30):
        f, g = random_delta(rng, G64), random_delta(rng, G64)
        lam = float(rng.uniform(0.1, 5.0))
        assert sf.semi_inner(f, lam * g) == pytest.approx(
            lam * sf.semi_inner(f, g), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_leave_semi_inner_undefined(bad):
    grid = sf.DirectionGrid(8)
    g = np.arange(8.0)  # one extremal index, 7
    f = np.zeros(8)
    f[7] = bad
    with pytest.raises(sf.NonFiniteValue, match="non-finite values"):
        sf.semi_inner(sf.SupportDelta(grid, f), sf.SupportDelta(grid, g))
    g[3] = np.nan
    with pytest.raises(sf.NonFiniteValue, match="non-finite values"):
        sf.semi_inner(sf.SupportDelta(grid, np.zeros(8)), sf.SupportDelta(grid, g))


@pytest.mark.parametrize("mpos", [1.0, 0.0])
def test_nan_at_one_extremal_index_is_not_dropped(mpos):
    # min(mpos, nan) keeps mpos: this returned 4 * mpos instead of raising
    grid = sf.DirectionGrid(8)
    g = np.array([4.0, 0, 0, 0, -4.0, 0, 0, 0])  # E+ = {0}, E- = {4}
    f = np.zeros(8)
    f[0], f[4] = mpos, np.nan
    with pytest.raises(sf.NonFiniteValue):
        sf.semi_inner(sf.SupportDelta(grid, f), sf.SupportDelta(grid, g))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "fn",
    [
        lambda g: sf.semi_inner(sf.SupportDelta(g.grid, np.ones(g.grid.n)), g),
        sf.extremal_sets,
        sf.dual_representatives,
    ],
    ids=["semi_inner", "extremal_sets", "dual_representatives"],
)
def test_non_finite_g_is_not_the_zero_function(fn, bad):
    # an infinite norm passed norm <= 1e-9 * norm: semi_inner gave 0.0, extremal_sets
    # the whole grid twice and dual_representatives raised ZeroFunction
    g = np.zeros(8)
    g[2] = bad
    with pytest.raises(sf.NonFiniteValue):
        fn(sf.SupportDelta(sf.DirectionGrid(8), g))


def test_grid_mismatch():
    with pytest.raises(sf.GridMismatch):
        sf.semi_inner(
            sf.SupportDelta(G64, np.zeros(64)),
            sf.SupportDelta(sf.DirectionGrid(32), np.zeros(32)),
        )


# ------------------------------------------------------------ dual representatives

def test_cosine_representatives():
    g = as_delta(sup(sf.ConvexPolygon.point((1, 0))))
    reps = sf.dual_representatives(g)
    assert len(reps) == 2
    weights = sorted(w for r in reps for _, w in r.atoms)
    assert weights == pytest.approx([-1.0, 1.0])
    for r in reps:
        assert sum(abs(w) for _, w in r.atoms) == pytest.approx(g.norm_inf)
        assert r(g) == pytest.approx(g.norm_inf**2)


def test_plateau_gives_one_atom_per_maximizer():
    vals = np.zeros(64)
    vals[:] = -1.0
    vals[[3, 7, 20]] = 1.0
    # smooth it into a legal delta: deltas need no cone property, any vector works
    g = sf.SupportDelta(G64, vals)
    reps = sf.dual_representatives(g)
    pos_atoms = [r.atoms[0][0] for r in reps if r.atoms[0][1] > 0]
    assert set(pos_atoms) == {3, 7, 20}


def test_zero_function_rejected():
    with pytest.raises(sf.ZeroFunction):
        sf.dual_representatives(sf.SupportDelta(G64, np.zeros(64)))


def test_oracle_equivalence_small_grids():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 33))
        grid = sf.DirectionGrid(n)
        f = random_delta(rng, grid)
        g = random_delta(rng, grid)
        expected = min(mu(f) for mu in sf.dual_representatives(g))
        assert sf.semi_inner(f, g) == expected  # bitwise identical by construction


def test_measure_distinct_indices():
    with pytest.raises(ValueError):
        sf.DiscreteMeasure(((0, 1.0), (0, -1.0)))


# ---------------------------------------------------- hausdorff realizing directions

def test_asymmetric_order_rejected_then_swapped_works():
    # dist(A1, Q) = sqrt(5) < sqrt(13) = dist(Q, A1) = dist_H
    with pytest.raises(sf.AsymmetricDistance):
        sf.hausdorff_realizing_directions(A1, Q, G64)
    idx = sf.hausdorff_realizing_directions(Q, A1, G64)
    expected, _ = G64.nearest_index((-3.0, -2.0))
    assert idx == (expected,)


def test_point_pair_direction():
    idx = sf.hausdorff_realizing_directions(
        sf.ConvexPolygon.point((2, 0)), sf.ConvexPolygon.point((0, 0)), G64
    )
    assert idx == (0,)


@pytest.mark.parametrize("n, degrees, gap, expected", [(1024, 2.0, 1e-6, 6), (64, 20.0, 1e-8, 4)])
def test_close_points_give_only_the_direction_between_them(n, degrees, gap, expected):
    # h_A - h_B = gap cos(theta - degrees) is within default_tol (1e-9) of its peak up to
    # acos(1 - 1e-9 / gap) from it, which takes in the fan's arc end at 0 degrees
    t = math.radians(degrees)
    a = sf.ConvexPolygon.point((gap * math.cos(t), gap * math.sin(t)))
    idx = sf.hausdorff_realizing_directions(a, sf.ConvexPolygon.point((0, 0)), sf.DirectionGrid(n))
    assert idx == (expected,)


def test_contained_rejected():
    inner = sf.ConvexPolygon.box((-0.5, 0.5), (-0.5, 0.5))
    with pytest.raises(sf.Contained):
        sf.hausdorff_realizing_directions(inner, Q, G64)


def test_realizing_directions_meet_extremal_sets():
    # the delta is Lipschitz in the angle with constant radius(A) + radius(B),
    # so maximizers must be detected at grid resolution: a sharp continuum
    # peak can fall up to Lip * delta/2 below the discrete maximum
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        a = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2)))
        b = sf.ConvexPolygon.from_points(rng.uniform(-2, 2, (6, 2)))
        try:
            idx = sf.hausdorff_realizing_directions(a, b, G64)
        except (sf.Contained, sf.AsymmetricDistance):
            continue
        checked += 1
        # the positive extremal set widened to that slack
        slack = (radius(a) + radius(b)) * G64.delta / 2
        vals = delta(a, b).values
        positive = np.flatnonzero(vals >= np.max(np.abs(vals)) - slack)
        for k in idx:
            near = {k, (k + 1) % 64, (k - 1) % 64}
            assert near & set(positive.tolist())
