"""Deterministic random geometry used by diagnostics and tests."""

from __future__ import annotations

import numpy as np

from .errors import EmptyIntersection
from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportSample,
    regularize,
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


def perturb_in_ball(
    base: SupportSample, r: float, rng: np.random.Generator
) -> SupportSample | None:
    """Cone element within sup-distance r of base, via a regularized bump.

    Regularization can push the perturbed vector far below the base, so the
    result is blended back toward base onto the sphere of radius r when
    needed; the blend stays in the cone because the cone is convex.  Returns
    None when the perturbed halfplanes have empty intersection.
    """
    bump = rng.uniform(-r, r, base.grid.n)
    try:
        reg = regularize(base.values + bump, base.grid)
    except EmptyIntersection:
        return None
    gap = float(np.max(np.abs(reg.values - base.values)))
    if gap <= r:
        return reg
    lam = r / gap
    return SupportSample(base.grid, base.values + lam * (reg.values - base.values))
