"""Exception types shared across the package."""


class SetflowError(Exception):
    """Base class for all setflow errors."""


class GridMismatch(SetflowError):
    """Operands live on different direction grids or have the wrong length."""


class NotInCone(SetflowError):
    """A value vector violates the discrete support-cone condition."""

    def __init__(self, index, margin, tol):
        self.index = index
        self.margin = margin
        self.tol = tol
        super().__init__(
            f"cone condition violated at index {index}: margin {margin:.3e} < -{tol:.3e}"
        )


class EmptyIntersection(SetflowError):
    """The halfplane intersection of a value vector is empty."""


class NegativeScalar(SetflowError):
    """Support samples can only be scaled by nonnegative factors."""


class Contained(SetflowError):
    """dist(P, Q) is within default_tol of zero: no farthest realizer or realizing direction."""


class AsymmetricDistance(SetflowError):
    """The one-sided distance in the requested order does not realize the
    Hausdorff distance; retry with the arguments swapped."""


class ZeroFunction(SetflowError):
    """The zero function has no normalized dual representatives."""


class NonFiniteValue(SetflowError):
    """A support vector, a difference quotient or a field value has a NaN or infinite entry."""


class ConfigError(SetflowError):
    """Scenario configuration is malformed."""

    def __init__(self, code, message):
        self.code = code
        super().__init__(message)
