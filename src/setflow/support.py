"""Discrete support-function calculus in the plane.

Convex compact sets are represented two ways: as counterclockwise vertex
lists (ConvexPolygon) and as vectors of support values on an equally spaced
grid of unit directions (SupportSample).  A value vector is a valid support
sample exactly when it satisfies a cyclic three-term convexity condition;
the cone of such vectors is closed under Minkowski addition and nonnegative
scaling, and the sup-norm distance between two samples is the grid estimate
of the Hausdorff distance between the sets.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    Contained,
    EmptyIntersection,
    GridMismatch,
    NegativeScalar,
    NonFiniteValue,
    NotInCone,
)

# Relative tolerances, each scaled by max(1, |x|_inf) where it is used.
# default_tol: every cone, extremal-set and geometric comparison.
TOL_REL = 1e-9
# regularize: margins this close to zero are rounding noise (keeps it idempotent).
_ULP_REL = 1e-13
# subtangent_feasible: margins this small count as zero.  _convex_hull: a point
# this close to the segment of its neighbours is on it.  regularize: how far every
# line moves out (relative to max(1, |s|_inf, r0)) when rounding leaves the exact
# intersection of a point or segment empty.
_FLAT_REL = 1e-12
_PRODUCT_FLOATS = 1 << 20  # support_of_polygon: most products per block (8 MiB)


def _scale(x):
    """max(1, |x|_inf) of each vector along the last axis: NaN for a vector with a NaN entry."""
    return np.maximum(1.0, np.abs(x).max(axis=-1))


def default_tol(x):
    """TOL_REL * max(1, |x|_inf), one per vector of a stack (flatten point sets)."""
    return TOL_REL * _scale(x)


@dataclass(frozen=True)
class DirectionGrid:
    """n equally spaced unit directions, angle_i = 2*pi*i/n, n >= 3."""

    n: int
    angles: np.ndarray = field(init=False, repr=False, compare=False)
    directions: np.ndarray = field(init=False, repr=False, compare=False)
    two_cos_delta: float = field(init=False, repr=False, compare=False)
    # (2, n + 1) cos and sin rows, each closed by its first entry: [:, 1:] is direction i + 1
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))  # TypeError unless integral
        if self.n < 3:
            raise ValueError(f"need at least 3 directions, got {self.n}")
        angles = 2.0 * np.pi * np.arange(self.n) / self.n
        cs = np.array([np.cos(angles), np.sin(angles)])
        ring, directions = np.concatenate([cs, cs[:, :1]], axis=1), cs.T.copy()  # (n, 2), C order
        for a in (angles, ring, directions):
            a.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "columns", ring)
        object.__setattr__(self, "two_cos_delta", 2.0 * math.cos(self.delta))

    @property
    def delta(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def is_even(self) -> bool:
        return self.n % 2 == 0

    def antipode(self, i: int) -> int:
        """Index of the opposite direction (even grids only)."""
        if not self.is_even:
            raise ValueError("antipodal reflection needs an even grid")
        return (i + self.n // 2) % self.n

    def nearest_index(self, v) -> tuple[int, float]:
        """Grid index closest to the direction of v, plus the angular snap error."""
        v = np.asarray(v, dtype=float)
        angle = math.atan2(v[1], v[0]) % (2.0 * math.pi)
        k = int(round(angle / self.delta)) % self.n
        err = angle - k * self.delta  # >= -delta/2, as angle is in [0, 2 pi)
        if err > math.pi:
            err -= 2.0 * math.pi
        return k, abs(err)


def _grid_values(values, grid: DirectionGrid, stacked: bool = False) -> np.ndarray:
    """values as floats with grid.n entries: shape (n,), or (..., n) if stacked."""
    s = np.asarray(values, dtype=float)
    if s.shape[-1:] != (grid.n,) or (s.ndim > 1 and not stacked):
        raise GridMismatch(f"expected {grid.n} values, got shape {s.shape}")
    return s


def _require_same_grid(a, b):
    if a.grid.n != b.grid.n:
        raise GridMismatch(f"grids of size {a.grid.n} and {b.grid.n}")


def _three_term(s: np.ndarray, grid: DirectionGrid) -> np.ndarray:
    s = np.ascontiguousarray(s)  # one flat pass: s_{i-1} + s_{i+1}, also across rows,
    m = np.empty_like(s)  # whose sums the wrap-around columns then overwrite
    flat, out = s.reshape(-1), m.reshape(-1)
    np.add(flat[:-2], flat[2:], out=out[1:-1])
    np.add(s[..., -1], s[..., 1], out=m[..., 0])
    np.add(s[..., -2], s[..., 0], out=m[..., -1])
    m -= grid.two_cos_delta * s
    return m


def cone_margins(values, grid: DirectionGrid) -> np.ndarray:
    """Cyclic three-term margins m_i = s_{i-1} + s_{i+1} - 2 cos(delta) s_i.

    A vector is a support sample of some nonempty convex compact set exactly
    when every margin is nonnegative; margin i measures the length (times
    sin delta) of the contact segment on supporting line i.  Accepts one
    vector of shape (n,) or a stack of shape (..., n), one vector per row.
    An overflowing margin is taken again as 4 * that of s / 4: exact, or +-inf past the range.
    """
    s = _grid_values(values, grid, stacked=True)
    with np.errstate(over="ignore", invalid="ignore"):  # both passes may overflow; no warning
        m = _three_term(s, grid)
        if not np.isfinite(m).all():
            m = np.where(np.isfinite(m), m, 4.0 * _three_term(0.25 * s, grid))
    return m


def cone_residual(values, grid: DirectionGrid):
    """Worst violation of the cone condition per row: 0.0 in the cone, NaN for a non-finite row."""
    worst = -cone_margins(values, grid).min(axis=-1)
    worst = np.where(np.isfinite(values).all(axis=-1), worst, math.nan)  # default_tol < inf
    return np.where(worst <= 0.0, 0.0, worst)[()]  # max(0.0, worst): -0.0 gives 0.0, NaN stays


def is_in_cone(values, grid: DirectionGrid) -> bool | np.ndarray:
    """The discrete cone condition at default_tol: a bool, or a bool array over the leading
    axes of a stack (..., n), tested row by row.  A NaN margin or an infinite entry fails."""
    tol = default_tol(values)  # inf for a row with an infinite entry, whose margins pass -inf
    return (cone_margins(values, grid).min(axis=-1) >= -tol) & (tol < math.inf)


def _require_in_cone(values, grid: DirectionGrid, tol) -> None:
    """NotInCone at the first failing row of a finite vector or stack (tol a scalar or one per
    row).  An infinite scalar tol skips the margins."""
    if isinstance(tol, float) and tol == math.inf:
        return
    limit = np.asarray(default_tol(values) if tol is None else tol).reshape(-1)
    m = cone_margins(values, grid).reshape(-1, grid.n)
    ok = m.min(axis=-1) >= -limit
    if not ok.all():
        k = int(ok.argmin())
        i = int(m[k].argmin())
        raise NotInCone(i, float(m[k, i]), float(limit[k % limit.size]))


def _monotone_chain(points, flat: float) -> list[tuple[float, float]]:
    """One half of the hull: each point pops every vertex right of or within flat of its segment."""
    out: list[tuple[float, float]] = []
    for b in points:
        bx, by = b
        while len(out) >= 2:
            ox, oy = out[-2]
            ax, ay = out[-1]
            dx, dy = bx - ox, by - oy
            cross = (ax - ox) * dy - (ay - oy) * dx  # > 0: a turns left
            if cross > 0.0 and cross > flat * math.hypot(dx, dy):
                break  # more than flat off the line through o and b
            if cross > 0.0 and not 0.0 <= (ax - ox) * dx + (ay - oy) * dy <= dx * dx + dy * dy:
                break  # near that line, but beyond an end of the segment
            out.pop()
        out.append(b)
    return out


def _convex_hull(coords: list[float], tol: float) -> np.ndarray:
    """Convex hull in CCW order via monotone chain, degenerate-safe.

    coords are finite coordinates x0, y0, x1, y1, ... under 2^500 (no product in the chain
    overflows) as Python floats: on a few points, numpy's per-call cost exceeds the geometry.
    Points whose coordinates / tol (their default_tol) round, half to even, to one cell merge
    into the first of them given; the survivors run in exact (x, y) order, so both chains are
    x-monotone and the polygon turns once.  A point within _FLAT_REL * max(1, |points|_inf)
    of the segment between its neighbours is dropped as collinear: a distance, not an area,
    so small sets and short edges keep their vertices.  The result may have 1 (point) or 2
    (segment) vertices; it starts at the least cell's point, or the least point if that is inside.
    """
    xs, ys = coords[0::2], coords[1::2]
    keys = [(round(x / tol), round(y / tol)) for x, y in zip(xs, ys)]
    cells = dict(zip(reversed(keys), zip(reversed(xs), reversed(ys))))  # the first given wins
    pts = sorted(cells.values())
    if len(pts) > 1:
        first = cells[min(cells)]
        flat = _FLAT_REL * max(1.0, max(map(abs, chain.from_iterable(pts))))
        hull = _monotone_chain(pts, flat)[:-1] + _monotone_chain(reversed(pts), flat)[:-1]
        k = hull.index(first) if first in hull else 0
        pts = hull[k:] + hull[:k]
    return np.array(list(chain.from_iterable(pts))).reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Convex compact set given by CCW vertices; points and segments allowed.

    The constructor canonicalizes any point collection to its convex hull,
    merging duplicates and collinear runs, starting at the point of the
    least dedup cell (see _convex_hull).
    """

    vertices: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.vertices, dtype=float).reshape(-1, 2).ravel().tolist()
        if not coords:
            raise ValueError("a polygon needs at least one vertex")
        if not all(map(math.isfinite, coords)):
            raise ValueError("polygon vertices must be finite")
        top = max(map(abs, coords))
        e = max(0, math.frexp(top)[1] - 500)  # hulled at the exact scale 2^-e: under 2^500
        if e:  # cells, flat and every turn scale exactly; coordinates under 2^(e - 1022) round
            coords = [math.ldexp(c, -e) for c in coords]
        hull = _convex_hull(coords, TOL_REL * max(1.0, math.ldexp(top, -e))) * 2.0**e
        hull.setflags(write=False)
        object.__setattr__(self, "vertices", hull)

    @classmethod
    def from_points(cls, points) -> "ConvexPolygon":
        return cls(np.asarray(points, dtype=float))

    @classmethod
    def box(cls, xr, yr) -> "ConvexPolygon":
        """Axis-aligned rectangle [xr[0], xr[1]] x [yr[0], yr[1]]."""
        (x0, x1), (y0, y1) = xr, yr
        if x1 < x0 or y1 < y0:
            raise ValueError("box bounds must be ordered")
        return cls(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))

    @classmethod
    def point(cls, p) -> "ConvexPolygon":
        return cls(np.asarray(p, dtype=float).reshape(1, 2))

    def __len__(self) -> int:
        return len(self.vertices)


def _extremal(vals: np.ndarray, paired: bool = False):
    """One (||row||, E+, E-) per row of a finite (..., n) stack (a vector is one row): the
    indices within default_tol of +||row|| and of -||row||, read-only.  A norm within default_tol
    of zero is None, with one shared whole-grid array as both sets.  If paired, also, masked as in
    osl_rows, the semi-inner product of row j + 1 with row j for each row j but the last, bit for
    bit, or NaN where its least value is zero: the masked min may give the other sign."""
    rows = vals.reshape(-1, vals.shape[-1])
    norm = np.abs(rows).max(axis=-1)
    tol = TOL_REL * np.maximum(norm, 1.0)  # default_tol of each row, bit for bit
    lim = np.where(norm > tol, norm - tol, math.inf)[:, None]  # -lim is -norm + tol, bit for bit
    mask = np.concatenate([rows >= lim, rows <= -lim])  # E+ of each row, then E-; zero rows: none
    row, idx = np.divmod(np.flatnonzero(mask), rows.shape[-1])
    ends = np.bincount(row, minlength=len(mask)).cumsum().tolist()
    whole = np.arange(rows.shape[-1])  # both sets of every zero row
    idx.setflags(write=False)
    whole.setflags(write=False)
    sets = [idx[a:b] for a, b in zip([0] + ends, ends)]
    out = [(x, p, q) if x > t else (None, whole, whole)
           for x, t, p, q in zip(norm.tolist(), tol.tolist(), sets, sets[len(rows):])]
    if not paired:
        return out
    pos, neg = mask[:len(rows) - 1], mask[len(rows):-1]  # the sets of row j, disjoint if nonzero
    nxt = rows[1:].copy()  # row j + 1 on E+, -(row j + 1) on E-, inf off both
    np.negative(nxt, out=nxt, where=neg)
    np.copyto(nxt, math.inf, where=~(pos | neg))
    least = nxt.min(axis=-1)  # inf for a zero row
    with np.errstate(over="ignore", invalid="ignore"):  # inf as for Python floats; 0 * inf below
        inner = np.where(least == 0.0, math.nan, norm[:-1] * least)
    return out, np.where(norm[:-1] > tol[:-1], inner, 0.0).tolist()


@dataclass(frozen=True, eq=False)
class SupportDelta:
    """Difference of two support functions; a full vector space on the grid.  Its values are
    finite: construction, so every + - * result, raises NonFiniteValue otherwise (an overflow)."""

    grid: DirectionGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _grid_values(self.values, self.grid).copy()
        if not np.isfinite(vals).all():
            raise NonFiniteValue("non-finite values in a support vector")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _checked(cls, grid: DirectionGrid, values: np.ndarray, extrema=None):
        """An instance over a read-only finite vector of grid.n floats, without a copy or test: a
        row of SetCurve.quotients with its _extremal entry, or a sample's in-cone vector."""
        s = object.__new__(cls)
        object.__setattr__(s, "grid", grid)
        object.__setattr__(s, "values", values)
        if extrema is not None:
            vars(s)["_extrema"] = extrema
        return s

    @cached_property
    def _extrema(self):
        """_extremal of values, computed once: values is read-only."""
        return _extremal(self.values)[0]

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.values).max())

    def __add__(self, other: "SupportDelta") -> "SupportDelta":
        _require_same_grid(self, other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other: "SupportDelta") -> "SupportDelta":
        _require_same_grid(self, other)
        return SupportDelta(self.grid, self.values - other.values)

    def __neg__(self) -> "SupportDelta":
        return SupportDelta(self.grid, -self.values)

    def __mul__(self, lam: float) -> "SupportDelta":
        return type(self)(self.grid, float(lam) * self.values)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class SupportSample(SupportDelta):
    """Support values of a convex compact set on a direction grid: a delta in the cone.

    Construction validates the three-term cone condition and raises
    NotInCone otherwise; tol defaults to the scale-aware cone tolerance but
    integrated states, accepted at their drift limit, pass that limit through.
    Minkowski + and nonnegative * give samples (sample + delta runs the cone test
    too); delta + sample, - and negation give deltas.
    """

    tol: InitVar[float | None] = None

    def __post_init__(self, tol):
        super().__post_init__()
        _require_in_cone(self.values, self.grid, tol)

    def __mul__(self, lam: float) -> "SupportSample":
        if lam < 0.0:
            raise NegativeScalar(
                "negative scaling leaves the support cone; use SupportDelta arithmetic"
            )
        return super().__mul__(lam)

    __rmul__ = __mul__


def support_of_polygon(p: ConvexPolygon, grid: DirectionGrid) -> SupportSample:
    """Support values max_v <direction_i, v> over the vertices of p, in (vertices, n) blocks."""
    u, v, step = grid.columns[:, :-1], p.vertices, max(2, _PRODUCT_FLOATS // grid.n)
    if len(v) == 1:  # (n, 2) @ (2,): the (1, 2) @ (2, n) product takes other bits
        return SupportSample(grid, grid.directions @ v[0])
    vals = (v[:step] @ u).max(axis=0)
    for i in range(step, len(v), step):  # the last block overlaps: one vertex takes other bits
        np.maximum(vals, (v[min(i, len(v) - step):i + step] @ u).max(axis=0), out=vals)
    return SupportSample(grid, vals)


def _line_corners(vals: np.ndarray, grid: DirectionGrid) -> np.ndarray:
    """The n points (n, 2) where lines <u_i, x> = vals_i and <u_{i+1}, x> = vals_{i+1}
    meet: for a vector in the cone, boundary points of its set, whose hull it is."""
    (cos, sin), (tcos, tsin) = grid.columns[:, :-1], grid.columns[:, 1:]
    sn, denom = np.concatenate((vals[1:], vals[:1])), math.sin(grid.delta)
    x = (vals * tsin - sn * sin) / denom
    y = (sn * cos - vals * tcos) / denom
    return np.column_stack([x, y])


def reconstruct_polygon(s: SupportSample) -> ConvexPolygon:
    """Polygon cut out by the supporting lines of a cone-consistent sample: the hull of
    its _line_corners.  Its support values reproduce s up to rounding."""
    return ConvexPolygon.from_points(_line_corners(s.values, s.grid))


def _deque_pass(
    s: np.ndarray, grid: DirectionGrid, keep: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """One pass of the sorted-angle deque algorithm over <u_i, x> <= s_i, for the
    increasing grid indices i in keep.

    A vertex is outside a line when it lies strictly beyond it.  Lines
    through one point (every grid line between two edges of a polygon's
    support) leave that test to rounding, and a rounding pop must not drop a
    line the intersection needs.  So the front is tested only once the new
    line j is more than pi past it (no exact front pop exists before), and a
    front pop that would leave j and the next line pi or more apart proves
    the intersection empty instead.
    """
    n = grid.n
    cs, sn = grid.columns[:, :-1].tolist()
    sv = s.tolist()
    lines: deque[int] = deque()
    vx: deque[float] = deque()  # vertex k, (vx[k], vy[k]), joins lines[k] and lines[k + 1]
    vy: deque[float] = deque()
    for j in keep:
        c, d, e = cs[j], sn[j], sv[j]
        while vx and c * vx[-1] + d * vy[-1] > e:
            lines.pop()
            vx.pop()
            vy.pop()
        while vx and 2 * (j - lines[0]) > n and c * vx[0] + d * vy[0] > e:
            if 2 * ((lines[1] - j) % n) >= n:
                raise EmptyIntersection("halfplane intersection is empty")
            lines.popleft()
            vx.popleft()
            vy.popleft()
        if lines:
            i = lines[-1]
            if 2 * ((j - i) % n) >= n:
                raise EmptyIntersection("halfplane intersection is empty")
            det = cs[i] * d - sn[i] * c
            vx.append((sv[i] * d - e * sn[i]) / det)
            vy.append((e * cs[i] - sv[i] * c) / det)
        lines.append(j)
    i = lines[0]
    while len(vx) >= 2 and cs[i] * vx[-1] + sn[i] * vy[-1] > sv[i]:
        lines.pop()
        vx.pop()
        vy.pop()
    j = lines[-1]
    while len(vx) >= 2 and cs[j] * vx[0] + sn[j] * vy[0] > sv[j]:
        lines.popleft()
        vx.popleft()
        vy.popleft()
    i, j = lines[-1], lines[0]
    if len(lines) < 3 or 2 * ((j - i) % n) >= n:
        raise EmptyIntersection("halfplane intersection is empty")
    det = cs[i] * sn[j] - sn[i] * cs[j]
    vx.append((sv[i] * sn[j] - sv[j] * sn[i]) / det)
    vy.append((sv[j] * cs[i] - sv[i] * cs[j]) / det)
    return np.array(lines), np.column_stack((vx, vy))


def _active_lines(
    s: np.ndarray, grid: DirectionGrid, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Active lines of the halfplanes <u_i, x> <= s_i in CCW order, and the vertices.

    The sorted-angle deque algorithm for halfplane intersection (de Berg et
    al., Computational Geometry, 3rd ed.); the grid angles are already
    sorted, so a pass costs O(n).  vertices[k] is where lines[k] meets
    lines[k + 1], cyclically.  A pass finds the intersection empty when two
    consecutive kept lines span an angle of pi or more, or fewer than 3 lines
    survive.

    The pass sees only the lines of positive margin m = cone_margins(s, grid)
    when there are at least 3 and consecutive ones are less than pi apart.
    The others are then redundant: for consecutive kept lines a and b with
    corner p, e_j = s_j - <u_j, p> has the margins of s, which are <= 0 on
    the lines between a and b, and e vanishes at a and b, so e >= 0 between
    them (a discrete maximum principle, comparing e with sin(theta_j -
    theta_a) > 0).  Each dropped halfplane thus contains the wedge of a and
    b, and its line meets that wedge at most at p.  Otherwise every line
    goes through the pass.
    Rounding can empty the pass for a point or a segment, so it is retried
    once over every line moved out by _FLAT_REL * max(1, |s|_inf, r0), r0 =
    max(s) / cos(delta / 2) bounding its points' norms; EmptyIntersection if that is
    empty too.  A pass over every line unmoved could not help: more
    halfplanes can only cut a subset of the pruned intersection.
    """
    keep = np.flatnonzero(m > 0)
    if len(keep) < 3 or 2 * np.diff(keep, append=keep[0] + grid.n).max() >= grid.n:
        keep = np.arange(grid.n)
    try:
        return _deque_pass(s, grid, keep.tolist())
    except EmptyIntersection:
        r0 = float(s.max()) / math.cos(grid.delta / 2.0)
        shift = _FLAT_REL * max(float(_scale(s)), r0)
        return _deque_pass(s + shift, grid, list(range(grid.n)))


def regularize(values, grid: DirectionGrid) -> SupportSample:
    """Largest support sample pointwise below a raw value vector.

    The support of the halfplane intersection of the vector, read in O(n):
    direction i takes its value from the vertex whose normal cone holds u_i,
    an active line from the larger of its two vertices.  Vectors already in
    the cone (up to rounding noise) pass through unchanged, which makes the
    map idempotent.  Raises NonFiniteValue for a non-finite entry and
    EmptyIntersection when the intersection is empty.
    """
    s = _grid_values(values, grid).copy()
    if not np.all(np.isfinite(s)):
        raise NonFiniteValue("halfplane values must be finite")
    m = cone_margins(s, grid)
    if float(m.min()) >= -_ULP_REL * _scale(s):  # inside default_tol: the cone test passes
        s.setflags(write=False)
        return SupportSample._checked(grid, s)
    lines, verts = _active_lines(s, grid, m)
    i = np.arange(grid.n)
    k = np.searchsorted(lines, i, side="right") - 1  # -1: past the last line
    (cos, sin), (x, y) = grid.columns[:, :-1], verts.T
    vals = cos * x[k] + sin * y[k]
    prev = cos * x[k - 1] + sin * y[k - 1]
    return SupportSample(grid, np.where(lines[k] == i, np.maximum(vals, prev), vals))


def halfplane_intersection(values, grid: DirectionGrid) -> ConvexPolygon:
    """Intersection of the halfplanes <u_i, x> <= values_i for a raw vector, which need
    not be in the cone: reconstruct_polygon(regularize(values, grid)), as regularize is
    the support of that intersection.  Raises what regularize raises."""
    return reconstruct_polygon(regularize(values, grid))


def hausdorff_grid(a: SupportSample, b: SupportSample) -> float:
    """Sup-norm distance of the samples: a grid lower bound on dist_H."""
    return (a - b).norm_inf


def _normal_fan(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal fan of the CCW hull v: its edge normals' angles in [0, 2 pi), increasing, and the
    vertex maximizing <x, u> from each to the next (a point: 0)."""
    e = np.diff(v, axis=0, append=v[:1])
    ang = np.arctan2(-e[:, 0], e[:, 1]) % (2.0 * math.pi)
    i = np.argsort(ang, kind="stable")  # a hull turns left: two sorted runs, merged in O(m)
    return ang[i], (i + 1) % len(v)


def _excess_candidates(p: ConvexPolygon, q: ConvexPolygon):
    """Candidates for the maximum of h_P - h_Q on the unit circle, in O(m + k) memory: values
    (-inf for none), unit directions (K, 2), the vertex of P of each, and which are local maxima.
    On an arc of the merged normal fans, h_P - h_Q = <w, u> with w = a - b (a in P, b in Q)
    peaks at an end or at u = w / |w| inside; an edge normal of P is an end of both its vertices.
    Only local maxima give directions (an end on a slope may be within default_tol of a far
    peak); the slopes' signs and the interior test share w's angle, so each rise ends in one."""
    ap, ip = _normal_fan(p.vertices)
    aq, iq = _normal_fan(q.vertices)
    ang = np.sort(np.concatenate([ap, aq]), kind="stable")  # merges the two sorted runs
    a = ip[np.searchsorted(ap, ang, side="right") - 1]  # -1: the arc wraps past 2 pi
    w = p.vertices[a] - q.vertices[iq[np.searchsorted(aq, ang, side="right") - 1]]
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    end = np.concatenate([u[1:], u[:1]])
    r, width = np.hypot(w[:, 0], w[:, 1]), np.diff(ang, append=ang[0] + 2.0 * math.pi)
    t = np.where(r > 0.0, (np.arctan2(w[:, 1], w[:, 0]) - ang) % (2.0 * math.pi), np.nan)
    inside = t < width  # t: the angle of w past the start; nan for w = 0, which is flat
    rise, fall = (t > 0.0) & (t < math.pi), inside & (t > width - math.pi) | (t > width + math.pi)
    peak = ~rise & ~np.concatenate((fall[-1:], fall[:-1]))  # at each arc's start: none rises
    vals = [(w * u).sum(axis=1), (w * end).sum(axis=1), np.where(inside, r, -math.inf)]
    dirs = [u, end, w / np.where(inside, r, 1.0)[:, None]]
    peaks = np.concatenate([peak, peak[1:], peak[:1], inside])
    return np.concatenate(vals), np.concatenate(dirs), np.tile(a, 3), peaks


def project_point(x, p: ConvexPolygon) -> np.ndarray:
    """Nearest point of p to x (1-Lipschitz in x): x - e u* for the excess e of {x} over p and
    a direction u* attaining it, or x when e = 0.  ValueError unless x is two finite numbers."""
    point = ConvexPolygon.point(x)
    vals, dirs, _, peak = _excess_candidates(point, p)
    c = int(np.where(peak, vals, -math.inf).argmax())
    return point.vertices[0] - vals[c] * dirs[c] if vals[c] > 0.0 else point.vertices[0].copy()


def hausdorff_onesided(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """dist(P, Q) = max(0, max over unit u of h_P(u) - h_Q(u)), exact for polygons."""
    return max(float(_excess_candidates(p, q)[0].max()), 0.0)


def hausdorff_exact(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Symmetric Hausdorff distance: the sup norm of h_P - h_Q on the unit circle."""
    return max(hausdorff_onesided(p, q), hausdorff_onesided(q, p))


def _realizer(p: ConvexPolygon, q: ConvexPolygon) -> tuple[float, np.ndarray, np.ndarray]:
    """(dist(P, Q), a*, b*): a* is the least vertex index of P on the faces at the
    candidates within default_tol of the largest, and b* = project_point(a*, Q)."""
    vals, _, owner, _ = _excess_candidates(p, q)
    top = float(vals.max())
    a = p.vertices[owner[vals >= top - default_tol(np.append(p.vertices, q.vertices))].min()]
    return max(top, 0.0), a.copy(), project_point(a, q)


def farthest_realizer(p: ConvexPolygon, q: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Pair (a*, b*) with a* in P farthest from Q and b* its projection (see _realizer).
    Raises Contained when dist(P, Q) is within default_tol of both vertex sets."""
    dist, a, b = _realizer(p, q)
    if dist <= default_tol(np.append(p.vertices, q.vertices)):
        raise Contained("dist(P, Q) vanishes; no realizing direction")
    return a, b
