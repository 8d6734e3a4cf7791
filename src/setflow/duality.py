"""Semi-inner product, extremal sets, and discrete dual representatives.

On the grid, the dual of the sup-norm function space reduces to finite
signed combinations of point masses.  The semi-inner product <f, g>_ is the
smallest pairing mu(f) over normalized dual elements mu concentrated on the
extremal sets of g; for nonzero g the single-atom representatives
+-||g|| delta_i at extremal indices already attain the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricDistance, Contained, NonFiniteValue, ZeroFunction
from .support import (
    TOL_REL,
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    _excess_candidates,
    _require_same_grid,
    default_tol,
    hausdorff_onesided,
)


@dataclass(frozen=True)
class ExtremalSets:
    """Grid indices where a delta attains +||f|| (positive) or -||f|| (negative).

    For the zero function both sets are the whole grid by convention.
    """

    positive: tuple[int, ...]
    negative: tuple[int, ...]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite signed combination of point masses on grid indices."""

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        idx = [i for i, _ in self.atoms]
        if len(set(idx)) != len(idx):
            raise ValueError("atoms must have distinct indices")
        object.__setattr__(
            self, "atoms", tuple((int(i), float(w)) for i, w in self.atoms)
        )

    def __call__(self, f) -> float:
        """Pairing mu(f); accepts a delta/sample or a raw value vector."""
        vals = np.asarray(getattr(f, "values", f), dtype=float)
        return float(sum(w * vals[i] for i, w in self.atoms))


def _extremal(vals: np.ndarray):
    """(||vals||, indices within default_tol of +||vals||, and of -||vals||).  A norm
    within default_tol of zero is None, with the whole grid twice; NonFiniteValue if not finite."""
    norm = float(np.abs(vals).max())
    if not math.isfinite(norm):
        raise NonFiniteValue("non-finite values of g")
    tol = TOL_REL * max(1.0, norm)  # default_tol(vals), bit for bit
    if norm <= tol:
        full = np.arange(len(vals))
        return None, full, full
    return norm, (vals >= norm - tol).nonzero()[0], (vals <= -norm + tol).nonzero()[0]


def extremal_sets(f) -> ExtremalSets:
    """Indices attaining the sup-norm of f from above and below, within default_tol."""
    _, pos, neg = _extremal(np.asarray(getattr(f, "values", f), dtype=float))
    return ExtremalSets(tuple(pos.tolist()), tuple(neg.tolist()))


def semi_inner(f: SupportDelta, g: SupportDelta) -> float:
    """One-sided pairing ||g|| * min{min_{E+} f, min_{E-} -f}, min over empty = inf.

    For finite g at least one extremal set is nonempty; for g == 0 the
    result is 0 by the full-grid convention.  Raises NonFiniteValue when a
    non-finite g, or a non-finite f at an extremal index, leaves it undefined.
    """
    _require_same_grid(f, g)
    gnorm, pos, neg = _extremal(g.values)
    if gnorm is None:
        return 0.0
    fvals = f.values
    mpos = float(fvals[pos].min()) if len(pos) else math.inf
    mneg = float((-fvals[neg]).min()) if len(neg) else math.inf
    m = min(mpos, mneg)
    if not math.isfinite(m) or math.isnan(mneg):  # min(x, nan) drops the nan
        raise NonFiniteValue("non-finite values of g, or of f at an extremal index of g")
    return gnorm * m


def dual_representatives(g: SupportDelta) -> list[DiscreteMeasure]:
    """Single-atom elements of the duality map of g: +-||g|| delta_i at extrema.

    Every returned measure mu has total variation ||g|| and pairs with g to
    ||g||^2.  The minimum of mu(f) over the list equals semi_inner(f, g).
    """
    gnorm, pos, neg = _extremal(g.values)
    if gnorm is None:
        raise ZeroFunction("the zero function has no normalized representatives")
    reps = [DiscreteMeasure(((i, gnorm),)) for i in pos.tolist()]
    reps += [DiscreteMeasure(((i, -gnorm),)) for i in neg.tolist()]
    return reps


def hausdorff_realizing_directions(
    a: ConvexPolygon, b: ConvexPolygon, grid: DirectionGrid
) -> tuple[int, ...]:
    """Grid indices nearest to the local maximizers u of sigma_A - sigma_B whose value is
    within default_tol (of both vertex sets) of dist(A, B) = max(0, max_u sigma_A - sigma_B).
    Requires dist(A, B) > 0 and dist(A, B) = dist_H(A, B), compared at the same tolerance;
    otherwise raises Contained or AsymmetricDistance (swap the arguments in the latter case)."""
    tol = default_tol(np.append(a.vertices, b.vertices))
    vals, dirs, _, peak = _excess_candidates(a, b)
    d_ab = float(vals.max())
    d_ba = hausdorff_onesided(b, a)
    if d_ab <= tol:
        raise Contained("A is contained in B; no realizing direction")
    if d_ab < max(d_ab, d_ba) - tol:
        raise AsymmetricDistance(
            "dist(A, B) < dist_H(A, B); swap the arguments to characterize E^N"
        )
    return tuple(sorted({grid.nearest_index(u)[0] for u in dirs[peak & (vals >= d_ab - tol)]}))
