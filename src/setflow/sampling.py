"""Deterministic random geometry used by diagnostics and tests."""

from __future__ import annotations

import numpy as np

from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportSample,
    support_of_polygon,
)

DEFAULT_SEED = 20240


def random_rectangle(rng: np.random.Generator) -> ConvexPolygon:
    """Axis-aligned rectangle with uniform center in [-2, 2]^2 and sides in [0, 3]."""
    cx, cy = rng.uniform(-2.0, 2.0, 2)
    wx, wy = rng.uniform(0.0, 3.0, 2) / 2.0
    return ConvexPolygon.box((cx - wx, cx + wx), (cy - wy, cy + wy))


def random_convex_polygon(rng: np.random.Generator) -> ConvexPolygon:
    """Hull of 3 to 8 uniform points in the square [-1.5, 1.5]^2."""
    k = int(rng.integers(3, 9))
    pts = rng.uniform(-1.5, 1.5, (k, 2))
    return ConvexPolygon.from_points(pts)


def random_cone_sample(grid: DirectionGrid, rng: np.random.Generator) -> SupportSample:
    """Support sample of a random convex polygon."""
    return support_of_polygon(random_convex_polygon(rng), grid)


def perturb_in_ball(base: SupportSample, r: float, rng: np.random.Generator) -> SupportSample:
    """Cone element within sup-distance r of base: base + lam * sigma_P.

    sigma_P is random_cone_sample(base.grid, rng) and lam = r * u / |sigma_P|_inf
    with u uniform on [0, 1), so the draw is the support of the Minkowski sum
    base + lam * P.  The cone is closed under addition and non-negative scaling,
    so every draw is in the cone and within r of base by construction.
    """
    step = random_cone_sample(base.grid, rng).values
    lam = r * rng.uniform() / float(np.max(np.abs(step)))
    return SupportSample(base.grid, base.values + lam * step)
