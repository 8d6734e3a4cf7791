"""Deterministic random geometry used by diagnostics and tests."""

from __future__ import annotations

import numpy as np

from .support import ConvexPolygon, DirectionGrid, SupportSample, _line_corners

DEFAULT_SEED = 20240


def random_rectangle(rng: np.random.Generator) -> ConvexPolygon:
    """Axis-aligned rectangle with uniform center in [-2, 2]^2 and sides in [0, 3]."""
    cx, cy = rng.uniform(-2.0, 2.0, 2)
    wx, wy = rng.uniform(0.0, 3.0, 2) / 2.0
    return ConvexPolygon.box((cx - wx, cx + wx), (cy - wy, cy + wy))


def rectangle_pairs(grid: DirectionGrid, T: float, count: int, rng: np.random.Generator):
    """Supports (count, 2, n) of count pairs of random_rectangle boxes, and a time each, from
    the same draws, bit for bit, as random_rectangle, random_rectangle, uniform(0, T) per pair."""
    (cos, sin), u = grid.directions.T, rng.random((count, 9))
    c, w = -2.0 + 4.0 * u.take([0, 1, 4, 5], 1), 3.0 * u.take([2, 3, 6, 7], 1) / 2.0  # C order
    lo, hi = (c - w).reshape(count, 2, 2, 1), (c + w).reshape(count, 2, 2, 1)  # pair, box, axis
    x, y = (np.where(d >= 0, hi[:, :, i], lo[:, :, i]) for i, d in enumerate((cos, sin)))
    return np.add(np.multiply(x, cos, out=x), np.multiply(y, sin, out=y), out=x), T * u[:, 8]


def random_cone_sample(grid: DirectionGrid, rng: np.random.Generator) -> SupportSample:
    """Support sample of (the hull of) 3 to 8 uniform points in [-1.5, 1.5]^2."""
    pts = rng.uniform(-1.5, 1.5, (int(rng.integers(3, 9)), 2))
    return SupportSample(grid, (grid.directions @ pts.T).max(axis=1))


def ball_draws(sigma0: SupportSample, r: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points of the cone ball of radius r around sigma0, as a (count, n) array.

    Row k is sigma0 + lam * d, lam scaling the step d to sup-norm r * u with u
    uniform on [0, 1).  Even rows widen sigma0's set: d = sigma_P >= 0 for a
    cloud P of the origin and 8 uniform points in [-1, 1]^2, so the row is the
    support of the Minkowski sum sigma0 + lam * P.  Odd rows shrink it:
    d = sigma_q - sigma0 <= 0 for a point q of the set (where two consecutive
    supporting lines meet) and lam <= 1, so the row is (1 - lam) * sigma0 +
    lam * sigma_q.  A zero step leaves its row at sigma0.  Every row is
    in the cone and within r of sigma0 by construction: no hull is built, and
    no (count, 8, n) array.
    """
    cos, sin = sigma0.grid.directions.T
    reach = r * rng.uniform(size=count)
    steps = np.zeros((count, len(cos)))  # 0: the origin of every cloud
    widen, shrink = steps[0::2], steps[1::2]  # views, written in place
    for p in rng.uniform(-1.0, 1.0, (8, len(widen), 2)):
        np.maximum(widen, np.outer(p[:, 0], cos) + np.outer(p[:, 1], sin), out=widen)
    q = _line_corners(sigma0.values, sigma0.grid)[rng.integers(len(cos), size=len(shrink))]
    shrink += np.outer(q[:, 0], cos) + np.outer(q[:, 1], sin) - sigma0.values
    norm = np.maximum(steps.max(axis=-1), -steps.min(axis=-1))
    cap = np.maximum(norm, reach * (np.arange(count) % 2))  # lam <= 1 on odd rows
    steps *= np.divide(reach, cap, out=np.zeros(count), where=norm > 0.0)[:, None]
    return np.add(steps, sigma0.values, out=steps)


def perturb_in_ball(base: SupportSample, r: float, rng: np.random.Generator) -> SupportSample:
    """One widening draw of ball_draws: base + lam * sigma_P, within r of base."""
    return SupportSample(base.grid, ball_draws(base, r, 1, rng)[0])
