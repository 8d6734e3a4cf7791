"""Hukuhara differences and differential classification of sampled set curves.

The Hukuhara difference A -_H B is the set C with B + C = A; in support
values it is the componentwise difference, and it exists exactly when that
difference is again in the support cone.  A sampled curve is classified per
interior step from its one-sided difference quotients: first-type steps have
both quotients in the cone (the curve grows), second-type steps have both
negated quotients in the cone (the curve shrinks), and reversing time swaps
the two classes.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NonFiniteValue
from .support import (
    DirectionGrid,
    SupportDelta,
    SupportSample,
    _extremal,
    _grid_values,
    _require_in_cone,
    _require_same_grid,
    cone_margins,
    default_tol,
    is_in_cone,
)


class HukuharaClass(Enum):
    FIRST_TYPE = "FirstType"
    SECOND_TYPE = "SecondType"
    BOTH = "Both"
    NEITHER = "Neither"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class SetCurve:
    """Sampled curve of convex sets: finite, strictly increasing times, one support vector each.

    Row j of quotients is the difference quotient from sample j to j + 1: NonFiniteValue unless
    all are finite, so are the rows, which then pass one stacked cone test at tol (a scalar or
    one per row; default_tol per row when None).  samples and deltas hold the rows, built once by
    stacked passes: sample j knows if the Hukuhara difference of j + 1 and j exists; delta j,
    its extremal sets and semi_inner(delta j + 1, delta j).
    """

    grid: DirectionGrid
    times: np.ndarray
    values: np.ndarray
    tol: InitVar[float | np.ndarray | None] = None
    quotients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, tol):
        times = np.array(self.times, dtype=float)
        values = np.array(_grid_values(self.values, self.grid, stacked=True))
        if times.ndim != 1 or values.shape[:-1] != times.shape:
            raise ValueError("times and values must have matching lengths")
        if len(times) < 2:
            raise ValueError("a curve needs at least two samples")
        with np.errstate(all="ignore"):  # non-finite steps and quotients raise below
            steps = np.diff(times)
            quotients = np.diff(values, axis=0) / steps[:, None]
        if not ((steps > 0) & (steps < math.inf)).all():  # NaN fails both
            raise ValueError("times must be finite and strictly increasing")
        if not np.isfinite(quotients).all():
            raise NonFiniteValue("non-finite values in the difference quotients")
        _require_in_cone(values, self.grid, tol)
        arrays = {"times": times, "values": values, "quotients": quotients}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def samples(self) -> tuple[SupportSample, ...]:
        samples = tuple(SupportSample._checked(self.grid, v) for v in self.values)
        exists = is_in_cone(np.diff(self.values, axis=0), self.grid).tolist()
        for a, b, e in zip(samples, samples[1:], exists):  # rows of b - a, bit for bit
            object.__setattr__(a, "_successor", (b.values, e))  # a row, not a chain of samples
        return samples

    @cached_property
    def deltas(self) -> tuple[SupportDelta, ...]:
        sets, inners = _extremal(self.quotients, paired=True)
        deltas = tuple(SupportDelta._checked(self.grid, q, e) for q, e in zip(self.quotients, sets))
        for g, f, inner in zip(deltas, deltas[1:], inners):
            if not math.isnan(inner):  # semi_inner(f, g), keyed by f's row, not f: no delta chain
                vars(g)["_pairing"] = (f.values, inner)
        return deltas

    def __len__(self) -> int:
        return len(self.times)


def _sample_or_none(grid: DirectionGrid, values: np.ndarray, exists=None) -> SupportSample | None:
    """A fresh vector as a sample when it passes is_in_cone (default_tol; exists, if known)."""
    if not (is_in_cone(values, grid) if exists is None else exists):
        return None
    values.setflags(write=False)
    return SupportSample._checked(grid, values)


def hukuhara_difference(a: SupportSample, b: SupportSample) -> SupportSample | None:
    """A -_H B as a support sample, or None when no such set exists.

    The only candidate is the componentwise difference (uniqueness of C in
    B + C = A); it is accepted exactly when it passes the cone test at
    default_tol of the difference (decided already for consecutive samples of a SetCurve, whose
    finite quotients make it finite).  NonFiniteValue if the difference overflows."""
    _require_same_grid(a, b)
    successor, exists = getattr(b, "_successor", (None, None))
    if successor is a.values:
        return _sample_or_none(a.grid, a.values - b.values, exists)
    with np.errstate(over="ignore"):  # the delta a - b raises NonFiniteValue for an overflow
        diff = a - b
    return _sample_or_none(a.grid, diff.values)


def _around(c: SetCurve, k: int) -> slice:
    """The backward and forward quotients (two rows) at interior index k."""
    if not 0 < k < len(c) - 1:
        raise IndexError(f"index {k} is not interior to the curve")
    return slice(k - 1, k + 1)


def difference_quotients(c: SetCurve, k: int) -> tuple[SupportDelta, SupportDelta]:
    """Forward and backward difference quotients at interior index k.

    Always well-defined as deltas, even when the corresponding Hukuhara differences do
    not exist.  They are items of c.deltas, shared: the forward one at k is the backward
    one at k + 1, and each keeps the extremal sets of the curve's stacked pass.
    """
    bwd, fwd = c.deltas[_around(c, k)]
    return fwd, bwd


_CLASSES = {
    (True, True): HukuharaClass.BOTH,
    (True, False): HukuharaClass.FIRST_TYPE,
    (False, True): HukuharaClass.SECOND_TYPE,
    (False, False): HukuharaClass.NEITHER,
}


def _step_types(grid, quotients: np.ndarray):
    """Per interior step: (first type, second type) as two boolean arrays.

    Step j lies between quotients j and j + 1.  It is first-type when both
    quotients are in the cone and second-type when both negated quotients
    are; the margins of -q are exactly -margins(q), so one margin pass over
    the stack decides both, each quotient tested once at its default_tol.
    """
    m, tol = cone_margins(quotients, grid), default_tol(quotients)
    grows = m.min(axis=-1) >= -tol
    shrinks = m.max(axis=-1) <= tol
    return grows[:-1] & grows[1:], shrinks[:-1] & shrinks[1:]


def classify_step(c: SetCurve, k: int) -> HukuharaClass:
    """Differentiability type at interior index k from the one-sided quotients."""
    first, second = _step_types(c.grid, c.quotients[_around(c, k)])
    return _CLASSES[bool(first[0]), bool(second[0])]


def classify_curve(c: SetCurve) -> tuple[HukuharaClass, list[HukuharaClass]]:
    """Whole-curve class (conjunction over interior steps) plus the breakdown.

    Boundary indices have only one-sided information and are excluded.
    """
    first, second = _step_types(c.grid, c.quotients)
    steps = [_CLASSES[f, s] for f, s in zip(first.tolist(), second.tolist())]
    return _CLASSES[bool(first.all()), bool(second.all())], steps


def time_reverse(c: SetCurve) -> SetCurve:
    """The curve t -> A(-t): times negated and reversed, rows reversed; c already tested them."""
    return SetCurve(c.grid, -c.times[::-1], c.values[::-1], tol=math.inf)


def second_type_differential(delta: SupportDelta) -> SupportSample | None:
    """Set-valued second-type differential for a derivative delta, if it exists.

    When -delta is a support sample of some set D, the second-type
    differential is the reflection -D, whose support values are the
    antipodal flip of -delta.  Requires an even grid; returns None when
    -delta is not in the cone.
    """
    grid = delta.grid
    if not grid.is_even:
        raise ValueError("second-type differentials need an even grid")
    flip, half = -delta.values, grid.n // 2
    return _sample_or_none(grid, np.concatenate((flip[half:], flip[:half])))
