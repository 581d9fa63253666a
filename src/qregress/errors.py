"""Exception types shared across the package."""


class QRegressError(ValueError):
    """Base class for every validation failure raised by this package."""


class DimensionError(QRegressError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(QRegressError):
    """An input violates a declared invariant (Hermiticity, trace, positivity)."""


class TimeOrderError(QRegressError):
    """Times are not in the required nondecreasing order."""


class GridAlignmentError(QRegressError):
    """A query time does not sit on the collision-model time grid."""


class BudgetExceededError(QRegressError):
    """A brute-force route would exceed its size budget.

    The joint collision oracle's state vector is capped by the configured
    entry budget, the classical path sum by a fixed path count.
    """
