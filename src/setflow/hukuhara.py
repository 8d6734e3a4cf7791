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

from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .support import (
    DirectionGrid,
    SupportDelta,
    SupportSample,
    _cone_limit,
    _grid_values,
    _require_in_cone,
    _require_same_grid,
    cone_margins,
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
    """Sampled curve of convex sets: strictly increasing times, one support vector each.

    The rows of values pass one stacked cone test at tol (a scalar or one per
    row; default_tol per row when None), kept per row as limits; samples are
    built from them on first use, without a second test.  Row j of quotients
    is the difference quotient from sample j to sample j + 1.
    """

    grid: DirectionGrid
    times: np.ndarray
    values: np.ndarray
    tol: InitVar[float | np.ndarray | None] = None
    limits: np.ndarray = field(init=False, repr=False)
    quotients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, tol):
        times = np.array(self.times, dtype=float)
        values = np.array(_grid_values(self.values, self.grid, stacked=True))
        if times.ndim != 1 or values.shape[:-1] != times.shape:
            raise ValueError("times and values must have matching lengths")
        if len(times) < 2:
            raise ValueError("a curve needs at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        limits = np.broadcast_to(_require_in_cone(values, self.grid, tol), times.shape).copy()
        quotients = np.diff(values, axis=0) / np.diff(times)[:, None]
        arrays = {"times": times, "values": values, "limits": limits, "quotients": quotients}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def samples(self) -> tuple[SupportSample, ...]:
        return tuple(SupportSample._checked(self.grid, v) for v in self.values)

    def __len__(self) -> int:
        return len(self.times)


def _sample_or_none(grid: DirectionGrid, values: np.ndarray) -> SupportSample | None:
    """A fresh vector as a sample when it passes is_in_cone (default_tol), else None."""
    if not is_in_cone(values, grid):
        return None
    values.setflags(write=False)
    return SupportSample._checked(grid, values)


def hukuhara_difference(a: SupportSample, b: SupportSample) -> SupportSample | None:
    """A -_H B as a support sample, or None when no such set exists.

    The only candidate is the componentwise difference (uniqueness of C in
    B + C = A); it is accepted exactly when it passes the cone test at
    default_tol of the difference.
    """
    _require_same_grid(a, b)
    return _sample_or_none(a.grid, a.values - b.values)


def _quotients_around(c: SetCurve, k: int) -> np.ndarray:
    """Backward and forward quotients (two rows) at interior index k."""
    if not 0 < k < len(c) - 1:
        raise IndexError(f"index {k} is not interior to the curve")
    return c.quotients[k - 1 : k + 1]


def difference_quotients(c: SetCurve, k: int) -> tuple[SupportDelta, SupportDelta]:
    """Forward and backward difference quotients at interior index k.

    Always well-defined as deltas, even when the corresponding Hukuhara
    differences do not exist.  The deltas are read-only views of rows of
    c.quotients, not copies.
    """
    bwd, fwd = _quotients_around(c, k)
    return SupportDelta._checked(c.grid, fwd), SupportDelta._checked(c.grid, bwd)


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
    m = cone_margins(quotients, grid)
    limit = _cone_limit(quotients, None)
    grows = ~np.any(m < -limit, axis=-1)
    shrinks = ~np.any(m > limit, axis=-1)
    return grows[:-1] & grows[1:], shrinks[:-1] & shrinks[1:]


def classify_step(c: SetCurve, k: int) -> HukuharaClass:
    """Differentiability type at interior index k from the one-sided quotients."""
    first, second = _step_types(c.grid, _quotients_around(c, k))
    return _CLASSES[bool(first[0]), bool(second[0])]


def classify_curve(c: SetCurve) -> tuple[HukuharaClass, list[HukuharaClass]]:
    """Whole-curve class (conjunction over interior steps) plus the breakdown.

    Boundary indices have only one-sided information and are excluded.
    """
    first, second = _step_types(c.grid, c.quotients)
    steps = [_CLASSES[f, s] for f, s in zip(first.tolist(), second.tolist())]
    return _CLASSES[bool(first.all()), bool(second.all())], steps


def time_reverse(c: SetCurve) -> SetCurve:
    """The curve t -> A(-t): times negated and reversed, rows reversed."""
    return SetCurve(c.grid, -c.times[::-1], c.values[::-1], tol=c.limits[::-1])


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
    return _sample_or_none(grid, np.roll(-delta.values, -(grid.n // 2)))
