"""Set dynamics on the support cone: feasibility diagnostics and integration.

A right-hand side maps (t, support sample) to a delta.  Solutions stay in the cone when the
field values are subtangent to it, on the grid a one-parameter family of linear inequalities
solved in closed form.  The integrator is fixed-step explicit (Euler or classical RK4) with a
stated drift-repair policy.  Existence-horizon, Lipschitz and one-sided-Lipschitz checks (the
last a semi-inner product of support vectors, osl_rows) are sampled estimates, not certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyIntersection, NonFiniteValue
from .hukuhara import SetCurve
from .sampling import ball_draws
from .support import (
    _FLAT_REL,
    TOL_REL,
    ConvexPolygon,
    DirectionGrid,
    SupportDelta,
    SupportSample,
    _grid_values,
    _realizer,
    _require_same_grid,
    _scale,
    cone_margins,
    cone_residual,
    default_tol,
    regularize,
    support_of_polygon,
)

METHODS = ("euler", "rk4")
POLICIES = ("never", "on_violation", "always")
_FLOAT64 = np.dtype(np.float64)
_TWO = np.array(2.0)  # _rk4_step: a 0-d array multiplies a state faster than a Python float


@dataclass(frozen=True)
class RhsField:
    """Right-hand side f(t, sigma) -> delta, evaluated on raw value vectors.

    fn gets one vector (n,) or a stack (..., n) and must act row by row; a result of shape (n,)
    is broadcast over the stack.  fn must be pure: integrate may evaluate it on states past the
    first one that is non-finite or needs repair, or of a truncated row, and then discards them.
    affine = (rate, offset) declares fn = rate*sigma + offset, offset a float or (n,) values,
    and so no t-dependence: lipschitz, exact_flow and the one evaluation a sampled check makes
    of such a field for all its times follow from it.
    """

    grid: DirectionGrid
    fn: Callable[[float, np.ndarray], np.ndarray]
    name: str = "field"
    affine: tuple[float, float | np.ndarray] | None = field(default=None, compare=False)

    @property
    def lipschitz(self) -> float | None:
        return None if self.affine is None else abs(self.affine[0])

    def eval(self, t: float, values: np.ndarray) -> np.ndarray:
        out = self.fn(t, values)
        if type(out) is not np.ndarray or out.dtype is not _FLOAT64 or out.shape != values.shape:
            out = _grid_values(out, self.grid, stacked=values.ndim > 1)
            # an (n,) result is copied to each row: arithmetic on a broadcast view is slow
            out = out if out.shape == values.shape else np.broadcast_to(out, values.shape).copy()
        return out

    def _evaluations(self, ts: list) -> list:
        """(t, k): evaluate row k at t = ts[k]; if affine, (ts[0], ...): all rows at once."""
        rows = [...] if self.affine is not None else range(len(ts))
        return list(zip(ts, rows))


def relax_to(target: SupportSample) -> RhsField:
    """Field sigma' = sigma_target - sigma: exponential relaxation to target."""

    def fn(t, y):
        return target.values - y

    return RhsField(target.grid, fn, name="relax_to", affine=(-1.0, target.values))


def constant_field(delta: SupportDelta) -> RhsField:
    def fn(t, y):
        return delta.values

    return RhsField(delta.grid, fn, name="constant", affine=(0.0, delta.values))


def expansion_field(grid: DirectionGrid, rate: float) -> RhsField:
    """Field sigma' = rate * sigma; expands sets for rate > 0."""

    def fn(t, y):
        return rate * y

    return RhsField(grid, fn, name="expand", affine=(rate, 0.0))


def exact_flow(f: RhsField, sigma0, times) -> np.ndarray:
    """States of an affine f from values sigma0 (n,) at times t >= 0, one row each: exp(rate t)
    sigma0 + t phi(rate t) offset, t phi(rate t) = expm1(rate t) / rate (t when rate == 0)."""
    ts = np.asarray(times, dtype=float)
    if f.affine is None:
        raise ValueError(f"field '{f.name}' declares no affine form")
    if not (ts >= 0).all():  # NaN fails too
        raise ValueError("t must be nonnegative")
    rate, offset = f.affine
    gain = ts if rate == 0 else np.expm1(rate * ts) / rate
    return np.exp(rate * ts)[:, None] * sigma0 + gain[:, None] * offset


def subtangent_feasible(v, sigma, grid: DirectionGrid):
    """Decide whether v lies in the tangent cone to the support cone at sigma.

    v and sigma are raw value vectors (n,) or stacks (..., n), decided row by
    row.  Each grid index contributes a linear constraint a_i + lambda*b_i >= -tol
    on lambda >= 0, where a and b are the three-term margins of v and sigma
    and tol is default_tol(v).
    The margins of sigma are nonnegative (up to rounding), so the feasible
    set is a closed interval computed exactly.  Returns (feasible, lam_min,
    lam_max): a bool and two floats, or arrays over the leading axes of a
    stack; both bounds are NaN on an infeasible row.  A row with a NaN or
    infinite entry in v or sigma, or a NaN bound (inf / inf), is infeasible.
    """
    a, b = cone_margins(v, grid), cone_margins(sigma, grid)
    tol = default_tol(v)[..., None]
    flat = _FLAT_REL * _scale(sigma)[..., None]
    up, down = b > flat, b < -flat
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and inf / inf give NaN bounds
        q = -tol - a
        np.divide(q, b, out=q, where=up | down)
    lo = np.max(q, axis=-1, where=up, initial=0.0)
    lam_min = lo + 0.0  # a -0.0 bound becomes 0.0; NaN stays
    lam_max = np.min(q, axis=-1, where=down, initial=math.inf)
    finite = np.isfinite(tol[..., 0]) & np.isfinite(flat[..., 0])  # as the rows of v and sigma
    ok = finite & ~(a < -tol).any(axis=-1, where=~(up | down)) & (lam_min <= lam_max)
    return ok[()], np.where(ok, lam_min, math.nan)[()], np.where(ok, lam_max, math.nan)[()]


def existence_horizon(
    f: RhsField, sigma0: SupportSample, r: float, T: float, budget: int = 64, seed: int = 0
) -> tuple[float, float]:
    """Sampled field bound c on [0, T] x (cone ball of radius r) and b = min(T, r/c).

    The states are sigma0, sigma0 + r and the budget rows of ball_draws around sigma0 (widened
    and shrunk sets), each at 9 equally spaced times on [0, T], or at 0 alone for an affine f.
    The bound is a lower-confidence estimate from this sweep, not a certified supremum.  A
    field that is zero on every sample gives c = 0 and b = T; NonFiniteValue if a value of
    the field is NaN or infinite.
    """
    if not (r > 0 and T > 0):  # NaN fails too
        raise ValueError("r and T must be positive")
    draws = ball_draws(sigma0, r, budget, np.random.default_rng(seed))
    stack = np.vstack([sigma0.values, sigma0.values + r, draws])
    c = 0.0
    for t, _ in f._evaluations(np.linspace(0.0, T, 9).tolist()):
        c = float(np.max(np.abs(f.eval(t, stack)), initial=c))  # NaN, once met, stays
    if not math.isfinite(c):
        raise NonFiniteValue(f"non-finite value of field '{f.name}'")
    return c, (T if c == 0.0 else min(T, r / c))


@dataclass(frozen=True)
class OslCase:
    """One applicable realizer condition of the one-sided Lipschitz check."""

    order: str  # "forward": dist(A,B) = dist_H; "reverse": dist(B,A) = dist_H
    a: np.ndarray
    b: np.ndarray
    direction_index: int
    snap_error: float
    lhs: float
    bound: float
    satisfied: bool


@dataclass(frozen=True)
class OslReport:
    satisfied: bool
    hausdorff: float
    cases: tuple[OslCase, ...]

    @property
    def witness(self) -> OslCase | None:
        return next((c for c in self.cases if not c.satisfied), None)


def osl_check(
    f: RhsField, a: ConvexPolygon, b: ConvexPolygon, t: float, rate: float
) -> OslReport | None:
    """Check the relative-velocity bound at the Hausdorff-realizing direction.

    For each one-sided distance that attains dist_H(A, B), the realizing pair
    gives a critical direction p (snapped to the nearest grid index, with the
    snap error recorded), and the scalar inequality
    f(t, sigma_A)(p) - f(t, sigma_B)(p) <= rate * dist_H is evaluated
    there (with roles swapped for the reverse order).  The report is
    satisfied when at least one applicable case holds.  Every comparison is
    made at default_tol of the vertices of A and B.  None when an order that
    attains dist_H has no realizing pair (its distance is within tol of zero,
    as for sets that coincide): the condition says nothing about the pair.
    """
    tol = default_tol(np.append(a.vertices, b.vertices))
    sets = (a, b)
    realizers = [_realizer(sets[i], sets[1 - i]) for i in (0, 1)]
    peaks = [dist for dist, _, _ in realizers]
    dh = max(peaks)
    orders = [i for i in (0, 1) if peaks[i] >= dh - tol]  # the orders attaining dist_H
    if any(peaks[i] <= tol for i in orders):
        return None
    fvals = [f.eval(t, support_of_polygon(s, f.grid).values) for s in sets]
    bound = rate * dh
    cases = []
    for i in orders:
        _, far, proj = realizers[i]
        idx, err = f.grid.nearest_index(far - proj)
        lhs = float(fvals[i][idx] - fvals[1 - i][idx])
        pa, pb = (far, proj) if i == 0 else (proj, far)
        order = ("forward", "reverse")[i]
        cases.append(OslCase(order, pa, pb, idx, err, lhs, bound, lhs <= bound + tol))
    return OslReport(any(c.satisfied for c in cases), dh, tuple(cases))


def osl_rows(f: RhsField, pairs: np.ndarray, ts: list, rate: float) -> list[tuple]:
    """One-sided Lipschitz check in the Banach space of each pair x, y of a (B, 2, n) stack at its
    time ts[k]: g = x - y, d = f(t, x) - f(t, y), lhs = [d, g]_- / |g|_inf, the least of d on E+
    and of -d on E- of g (NaN if d is NaN there).  Rows (t, |g|_inf, the lowest index of lhs, lhs,
    bound = rate * |g|_inf, lhs <= bound + default_tol of x, y and d, False if d is not finite) of
    the pairs, in order, whose |g|_inf exceeds default_tol of x and y (hence of g); NonFiniteValue
    if g is not finite."""
    g = pairs[:, 0] - pairs[:, 1]  # then d, then the arms of lhs: one buffer
    if not np.isfinite(dist := np.abs(g).max(axis=-1)).all():
        raise NonFiniteValue("non-finite values of g")
    near, tol = default_tol(dist[:, None]), default_tol(pairs).max(axis=-1)
    pos, neg = g >= (dist - near)[:, None], g <= (-dist + near)[:, None]  # E+, E- of g
    for t, k in f._evaluations(ts):
        np.subtract(*np.moveaxis(f.eval(t, pairs[k]), -2, 0), out=g[k])
    slack = np.maximum(tol, default_tol(g))  # finite exactly when d is
    np.negative(g, out=g, where=neg)
    np.copyto(g, math.inf, where=~(pos | neg))
    index = g.argmin(axis=-1)  # the first NaN, if any
    lhs, bound = g[np.arange(len(g)), index], rate * dist
    rows = zip(ts, dist.tolist(), index.tolist(), lhs.tolist(), bound.tolist(),
               ((lhs <= bound + slack) & np.isfinite(slack)).tolist())
    return [row for row, kept in zip(rows, (dist > tol).tolist()) if kept]


@dataclass(frozen=True)
class Trajectory:
    """Stored output of integrate: states plus per-step drift diagnostics.

    residuals[k] is the worst cone violation of the raw step before the
    regularization policy ran; regularized[k] flags whether it did run.
    failure is None for a run that reached T; a truncated run stops before
    the step whose repair failed and names its time in failure.
    """

    grid: DirectionGrid
    times: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    regularized: np.ndarray
    failure: str | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def completed(self) -> bool:
        return self.failure is None

    def sample(self, k: int) -> SupportSample:
        state = self.states[k]
        return SupportSample(self.grid, state, tol=_drift_limit(state))

    @property
    def final(self) -> SupportSample:
        return self.sample(len(self) - 1)

    def curve(self) -> SetCurve:
        """The stored states as a curve, checked once at the drift limit of each."""
        return SetCurve(self.grid, self.times, self.states, tol=_drift_limit(self.states))


def _drift_limit(state: np.ndarray):
    """Cone residual a state (each row of a stack) may keep: 10x default_tol."""
    return 10.0 * default_tol(state)


def _euler_step(f: RhsField, t: float, y: np.ndarray, h: float) -> np.ndarray:
    return y + h * f.eval(t, y)


def _rk4_step(f: RhsField, t: float, y: np.ndarray, h: float) -> np.ndarray:
    half, whole, sixth = np.array(h / 2.0), np.array(h), np.array(h / 6.0)  # float64: same bits
    k1 = f.eval(t, y)
    k2 = f.eval(t + h / 2.0, y + half * k1)
    k3 = f.eval(t + h / 2.0, y + half * k2)
    k4 = f.eval(t + h, y + whole * k3)
    return y + sixth * (k1 + _TWO * k2 + _TWO * k3 + k4)


def integrate_stack(
    f: RhsField, sigmas: Sequence[SupportSample], T: float, h: float, method: str = "rk4",
    policy: str = "on_violation",
) -> tuple[Trajectory, ...]:
    """Fixed-step explicit integration of a stack of initial samples, one trajectory each.

    The rows share one time grid (its last step is shortened to hit T) and
    step together as one (B, n) array into preallocated storage.  Each step
    records every row's cone residual and applies the drift-repair policy
    per row: "never" keeps the raw state, "on_violation" regularizes when the
    residual exceeds the drift limit (10x the scale-aware cone tolerance),
    "always" always does.  A row whose repair finds the halfplane
    intersection empty is truncated: its trajectory ends at its last kept
    state, with its failure set, and it steps on unchecked and unrepaired.
    A non-finite state of any other row raises NonFiniteValue, the only
    report of an overflow: the steps run with numpy's overflow and
    invalid-value warnings off.

    States are checked in stacked blocks: a clean block is kept whole and the
    next is twice as long; otherwise the states before its first non-finite or
    repaired step are kept, that step is handled and the rest are stepped
    again, the next block as long as the run that ended.  The results equal a
    check after every step, bit for bit."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    if not (h > 0 and T > 0):  # NaN fails too
        raise ValueError("T and h must be positive")
    step = _euler_step if method == "euler" else _rk4_step
    grid = f.grid
    for sigma in sigmas:
        _require_same_grid(sigma, f)

    n_full = int(math.floor(T / h + TOL_REL))  # a grid time within TOL_REL * max(1, T) is T
    times = [k * h for k in range(n_full + 1)]
    if T - times[-1] > TOL_REL * max(1.0, T):
        times.append(T)
    else:
        times[-1] = T

    y = np.array([sigma.values for sigma in sigmas])
    shape = (len(y), len(times))
    states, residuals = np.empty(shape + (grid.n,)), np.empty(shape)
    regularized = np.zeros(shape, dtype=bool)
    states[:, 0], residuals[:, 0] = y, cone_residual(y, grid)
    ends = np.full(len(y), len(times))  # states kept per row; a truncated row steps on unchecked
    limit = {"never": math.inf, "always": -math.inf}.get(policy)  # None: each state's drift limit
    k, span, start = 1, 1, 1  # first unchecked step, next block's length, start of this run
    with np.errstate(over="ignore", invalid="ignore"):  # NonFiniteValue reports these
        while k < len(times) and (live := ends == len(times)).any():
            stop = min(k + span, len(times))
            for j in range(k, stop):
                y = step(f, times[j - 1], y, times[j] - times[j - 1])
                states[:, j] = y
            block = states[:, k:stop]  # (B, steps, n): one check for the whole block
            # residuals past the first event are stored again when their steps are redone
            res = residuals[:, k:stop] = cone_residual(block, grid)
            fix = ~(res <= (_drift_limit(block) if limit is None else limit))  # NaN: an event
            events = fix[live].any(axis=0)
            e = int(events.argmax())
            if not events[e]:
                k, span = stop, 2 * span
                continue
            j = k + e
            if np.isnan(res[live, e]).any():  # a non-finite state
                raise NonFiniteValue(f"non-finite state at t = {times[j]} under field '{f.name}'")
            y, fix = states[:, j].copy(), fix[:, e] & live
            for i in fix.nonzero()[0]:
                try:
                    y[i] = regularize(y[i], grid).values
                except EmptyIntersection:
                    ends[i] = j
            states[:, j], regularized[:, j] = y, fix
            k, span, start = j + 1, j - start + 1, j + 1  # expect the last run again
    return tuple(
        Trajectory(grid, np.array(times[:end], dtype=float), states[b, :end], residuals[b, :end],
                   regularized[b, :end], None if end == len(times)
                   else f"empty halfplane intersection at t = {times[end]}")
        for b, end in enumerate(ends.tolist())
    )


def integrate(
    f: RhsField, sigma0: SupportSample, T: float, h: float, method: str = "rk4",
    policy: str = "on_violation",
) -> Trajectory:
    """integrate_stack of the one initial sample sigma0."""
    return integrate_stack(f, [sigma0], T, h, method, policy)[0]


def relaxation_closed_form(a0: ConvexPolygon, q: ConvexPolygon, t: float,
                           grid: DirectionGrid) -> SupportSample:
    """exact_flow of relax_to(q) from a0 at t >= 0; kept while bench/tracing.py TARGETS names it."""
    f = relax_to(support_of_polygon(q, grid))
    return SupportSample(grid, exact_flow(f, support_of_polygon(a0, grid).values, [t])[0])


def relaxation_curve(a0: ConvexPolygon, q: ConvexPolygon, times, grid: DirectionGrid) -> SetCurve:
    """exact_flow of relax_to(q) from a0 as a SetCurve; kept while bench/kernels.py calls it."""
    f = relax_to(support_of_polygon(q, grid))
    return SetCurve(grid, times, exact_flow(f, support_of_polygon(a0, grid).values, times))


def lipschitz_estimate(
    f: RhsField, sigma0: SupportSample, r: float, T: float, budget: int = 200, seed: int = 0
) -> float:
    """Empirical sup of the field's difference quotients on [0, T] x (cone ball of radius r).

    The pairs are consecutive rows of budget + 1 ball_draws around sigma0, a widened set and a
    shrunk one, and the field is evaluated on all rows at the times of existence_horizon.  A
    lower bound on any Lipschitz constant of f in its second argument on that set.  Pairs that
    coincide give none; NonFiniteValue if another's quotient (or a field value in it) is not finite.
    """
    if budget < 1 or not (r > 0 and T > 0):  # NaN fails too
        raise ValueError("budget must be at least 1, and r and T positive")
    ys = ball_draws(sigma0, r, budget + 1, np.random.default_rng(seed))
    den = np.max(np.abs(np.diff(ys, axis=0)), axis=-1)
    best = 0.0
    for t, _ in f._evaluations(np.linspace(0.0, T, 9).tolist()):
        num = np.max(np.abs(np.diff(f.eval(t, ys), axis=0)), axis=-1)
        best = float(np.max(num[den > 0.0] / den[den > 0.0], initial=best))  # NaN stays
    if not math.isfinite(best):
        raise NonFiniteValue(f"non-finite difference quotient of field '{f.name}'")
    return best
