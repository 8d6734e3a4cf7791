"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import math
import time

import numpy as np

import setflow as sf
from setflow import HukuharaClass

GRID = sf.DirectionGrid(64)
Q = sf.ConvexPolygon.box((-1, 1), (-1, 1))
RECTS = {
    1: sf.ConvexPolygon.box((2, 3), (1, 2)),
    2: sf.ConvexPolygon.box((0, 3.5), (-1.5, 2.5)),
    3: sf.ConvexPolygon.box((-1.5, 3.5), (-0.5, 0)),
}
SQ = sf.support_of_polygon(Q, GRID)
RELAX = sf.relax_to(SQ)


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_closed_form_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for rect in RECTS.values():
        traj = sf.integrate(RELAX, sf.support_of_polygon(rect, GRID), T=4.0, h=0.01)
        closed = np.array(
            [sf.relaxation_closed_form(rect, Q, float(t), GRID).values for t in traj.times]
        )
        worst = max(worst, float(np.max(np.abs(traj.states - closed))))
    elapsed = time.perf_counter() - start
    report(
        1,
        f"rk4 h=0.01 matches closed form (err {worst:.2e} <= 1e-6, {elapsed:.2f}s < 1s)",
        worst <= 1e-6 and elapsed < 1.0,
    )


def test_criterion_02_classification():
    expected = {
        1: HukuharaClass.FIRST_TYPE,
        2: HukuharaClass.SECOND_TYPE,
        3: HukuharaClass.NEITHER,
    }
    ok = True
    for k, rect in RECTS.items():
        curve = sf.relaxation_curve(rect, Q, np.linspace(0, 4, 17), GRID)
        whole, steps = sf.classify_curve(curve)
        ok = ok and whole is expected[k] and all(s is expected[k] for s in steps)
    report(2, "per-step classes are (FirstType, SecondType, Neither)", ok)


def test_criterion_03_exponential_stability():
    worst = 0.0
    for rect in RECTS.values():
        s0 = sf.support_of_polygon(rect, GRID)
        traj = sf.integrate(RELAX, s0, T=4.0, h=0.01)
        d0 = sf.hausdorff_grid(s0, SQ)
        for t, state in zip(traj.times, traj.states):
            ratio = float(np.max(np.abs(state - SQ.values))) / d0
            worst = max(worst, abs(ratio - math.exp(-t)) / math.exp(-t))
    report(3, f"gap decays like exp(-t) (rel err {worst:.2e} <= 1e-6)", worst <= 1e-6)


def test_criterion_04_convergence_order():
    hs = [0.08, 0.04, 0.02, 0.01]
    s0 = sf.support_of_polygon(RECTS[1], GRID)
    exact = sf.relaxation_closed_form(RECTS[1], Q, 1.0, GRID).values
    slopes = {}
    for method in ("euler", "rk4"):
        errs = [
            float(np.max(np.abs(
                sf.integrate(RELAX, s0, 1.0, h, method=method).final.values - exact
            )))
            for h in hs
        ]
        slopes[method] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = abs(slopes["euler"] - 1.0) <= 0.3 and abs(slopes["rk4"] - 4.0) <= 0.3
    report(
        4,
        f"observed orders euler {slopes['euler']:.2f} (1.0±0.3), "
        f"rk4 {slopes['rk4']:.2f} (4.0±0.3)",
        ok,
    )


def test_criterion_05_semi_inner_oracle():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(500):
        n = int(rng.integers(3, 33))
        g = sf.DirectionGrid(n)
        f = sf.SupportDelta(g, rng.standard_normal(n) * rng.uniform(0.1, 2.0))
        d = sf.SupportDelta(g, rng.standard_normal(n) * rng.uniform(0.1, 2.0))
        oracle = min(mu(f) for mu in sf.dual_representatives(d))
        ok = ok and sf.semi_inner(f, d) == oracle
        diag = sf.semi_inner(f, f)
        ok = ok and abs(diag - f.norm_inf**2) <= 8 * np.spacing(f.norm_inf**2)
    report(5, "semi-inner equals dual-representative minimum exactly (500 pairs)", ok)


def test_criterion_06_hukuhara_round_trip():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(500):
        ax, ay = np.sort(rng.uniform(-3, 3, 2)), np.sort(rng.uniform(-3, 3, 2))
        bx, by = np.sort(rng.uniform(-3, 3, 2)), np.sort(rng.uniform(-3, 3, 2))
        a = sf.support_of_polygon(sf.ConvexPolygon.box(tuple(ax), tuple(ay)), GRID)
        b = sf.support_of_polygon(sf.ConvexPolygon.box(tuple(bx), tuple(by)), GRID)
        predicted = (ax[1] - ax[0] >= bx[1] - bx[0]) and (ay[1] - ay[0] >= by[1] - by[0])
        c = sf.hukuhara_difference(a, b)
        ok = ok and (c is not None) == predicted
        if c is not None:
            back = b + c
            ok = ok and float(np.max(np.abs(back.values - a.values))) <= 8 * np.spacing(
                float(np.max(np.abs(a.values)))
            )
    report(6, "difference exists iff interval criterion holds; b + c = a (500 pairs)", ok)


def test_criterion_07_time_reversal():
    swap = {
        HukuharaClass.FIRST_TYPE: HukuharaClass.SECOND_TYPE,
        HukuharaClass.SECOND_TYPE: HukuharaClass.FIRST_TYPE,
        HukuharaClass.BOTH: HukuharaClass.BOTH,
        HukuharaClass.NEITHER: HukuharaClass.NEITHER,
    }
    rng = np.random.default_rng(107)
    total = agree = 0
    for _ in range(100):
        length = int(rng.integers(4, 9))
        times = np.cumsum(rng.uniform(0.1, 1.0, length))
        samples = [sf.random_cone_sample(GRID, rng).values for _ in range(length)]
        curve = sf.SetCurve(GRID, times, samples)
        rev = sf.time_reverse(curve)
        m = length - 1
        for k in range(1, m):
            total += 1
            if sf.classify_step(rev, m - k) is swap[sf.classify_step(curve, k)]:
                agree += 1
    report(7, f"reversal swaps first/second type in {agree}/{total} steps", agree == total)


def test_criterion_08_hausdorff_consistency():
    rng = np.random.default_rng(109)
    grids = {n: sf.DirectionGrid(n) for n in (64, 256, 1024)}
    ok_close = ok_lower = True
    monotone = 0
    pairs = 500
    for _ in range(pairs):
        p = sf.ConvexPolygon.from_points(rng.uniform(-1.6, 1.6, (int(rng.integers(3, 8)), 2)))
        q = sf.ConvexPolygon.from_points(rng.uniform(-1.6, 1.6, (int(rng.integers(3, 8)), 2)))
        exact = sf.hausdorff_exact(p, q)
        est = {
            n: sf.hausdorff_grid(sf.support_of_polygon(p, g), sf.support_of_polygon(q, g))
            for n, g in grids.items()
        }
        ok_close = ok_close and (exact - est[1024]) <= 1e-2 * (1.0 + exact)
        ok_lower = ok_lower and all(e <= exact + 1e-12 * (1.0 + exact) for e in est.values())
        if est[64] <= est[256] + 1e-12 and est[256] <= est[1024] + 1e-12:
            monotone += 1
    report(
        8,
        f"grid estimate close below exact; monotone in {monotone}/{pairs} pairs",
        ok_close and ok_lower and monotone >= 0.99 * pairs,
    )


def test_criterion_09_subtangent_feasibility():
    rng = np.random.default_rng(113)
    ok = True
    for _ in range(1000):
        sigma = sf.random_cone_sample(GRID, rng)
        feasible, lam_min, lam_max = sf.subtangent_feasible(
            RELAX.eval(0.0, sigma.values), sigma.values, GRID
        )
        ok = ok and feasible and lam_min <= 1.0 <= lam_max
    report(9, "relaxation field subtangent with lambda = 1 at 1000 cone points", ok)


def test_criterion_10_osl_sampling():
    rng = np.random.default_rng(127)
    omega = 1.0
    satisfied = checked = 0
    while checked < 1000:
        a, b = sf.random_rectangle(rng), sf.random_rectangle(rng)
        rep = sf.osl_check(RELAX, a, b, 0.0, omega)
        if rep is None:
            continue
        checked += 1
        satisfied += rep.satisfied
    expand = sf.expansion_field(GRID, 1.0)
    rep = sf.osl_check(expand, RECTS[1], Q, 0.0, 0.0)
    w = rep.witness
    gap_ok = False
    if w is not None:
        # brute-force sweep: the field difference at the snapped direction,
        # recomputed from vertex dot products
        u = GRID.directions[w.direction_index]
        sa = max(float(u @ v) for v in RECTS[1].vertices)
        sb = max(float(u @ v) for v in Q.vertices)
        lhs_bf = sa - sb if w.order == "forward" else sb - sa
        gap_ok = abs((w.lhs - w.bound) - (lhs_bf - 0.0)) <= 1e-9
    report(
        10,
        f"relaxation field OSL satisfied {satisfied}/1000; adversarial witness gap matches sweep",
        satisfied == checked == 1000 and not rep.satisfied and gap_ok,
    )
