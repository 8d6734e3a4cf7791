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

from .errors import AsymmetricDistance, Contained, ZeroFunction
from .support import (
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    _excess_candidates,
    _require_same_grid,
    default_tol,
    hausdorff_onesided,
)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite signed combination of point masses on grid indices."""

    atoms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        idx = [i for i, _ in self.atoms]
        if len(set(idx)) != len(idx):
            raise ValueError("atoms must have distinct indices")
        object.__setattr__(self, "atoms", tuple((int(i), float(w)) for i, w in self.atoms))

    @classmethod
    def _trusted(cls, atoms: tuple[tuple[int, float], ...]) -> "DiscreteMeasure":
        """An instance over atoms of distinct Python ints and floats, without a test or copy."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "atoms", atoms)
        return mu

    def __call__(self, f: SupportDelta) -> float:
        """Pairing mu(f) with a delta or sample."""
        return float(sum(w * f.values.item(i) for i, w in self.atoms))


def extremal_sets(f: SupportDelta) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(E+, E-): the indices where f attains +||f|| and -||f||, within default_tol.
    For the zero function both are the whole grid by convention."""
    _, pos, neg = f._extrema
    return tuple(pos.tolist()), tuple(neg.tolist())


def semi_inner(f: SupportDelta, g: SupportDelta) -> float:
    """One-sided pairing ||g|| * min{min_{E+} f, min_{E-} -f}, min over empty = inf (an
    extremal set of g is nonempty); 0 for g == 0 by the full-grid convention.  A delta of a
    SetCurve keeps the bits of this pairing with the next delta from the curve's stacked pass."""
    _require_same_grid(f, g)
    key, inner = getattr(g, "_pairing", (None, None))
    if key is f.values:
        return inner
    gnorm, pos, neg = g._extrema
    if gnorm is None:
        return 0.0
    fvals = f.values
    mpos = float(fvals[pos].min()) if len(pos) else math.inf
    mneg = float((-fvals[neg]).min()) if len(neg) else math.inf
    return gnorm * min(mpos, mneg)


def dual_representatives(g: SupportDelta) -> list[DiscreteMeasure]:
    """Single-atom elements of the duality map of g: +-||g|| delta_i at extrema.

    Every returned measure mu has total variation ||g|| and pairs with g to
    ||g||^2.  The minimum of mu(f) over the list equals semi_inner(f, g).  Each call builds
    the measures anew, from the extremal sets the delta keeps.
    """
    gnorm, pos, neg = g._extrema
    if gnorm is None:
        raise ZeroFunction("the zero function has no normalized representatives")
    atoms = [(i, gnorm) for i in pos.tolist()] + [(i, -gnorm) for i in neg.tolist()]
    return [DiscreteMeasure._trusted((a,)) for a in atoms]


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
