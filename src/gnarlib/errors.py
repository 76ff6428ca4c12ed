"""Exception types shared across the library, and the seed check.

All errors raised on bad user input derive from ``GnarError`` so callers
can catch one base class; the CLI maps them to nonzero exit codes.
"""

import numbers


class GnarError(Exception):
    """Base class for all library-specific errors."""


class InvalidInputError(GnarError, ValueError):
    """An argument violates a documented precondition."""


class DataIntegrityError(GnarError, ValueError):
    """Input data contradicts itself (e.g. conflicting duplicate cells)."""


class DegenerateGeometryError(GnarError, ValueError):
    """Point configuration admits no triangulation (e.g. all collinear)."""


class ModelInadmissibleError(GnarError, ValueError):
    """A requested neighbourhood stage is empty for some node."""


class SingularDesignError(GnarError, ValueError):
    """Design matrix is rank deficient; names the dependent columns."""


class InsufficientDataError(GnarError, ValueError):
    """Not enough usable observations to perform the operation."""


class FeasibilityError(GnarError, ValueError):
    """Dimensions rule out the requested estimator (e.g. full covariance)."""


class UndefinedStatisticError(GnarError, ValueError):
    """The statistic is undefined for this input (e.g. constant values)."""


class SelectionFailedError(GnarError, ValueError):
    """No candidate in a model search could be fitted."""


def _check_seed(seed) -> None:
    """Reject a seed that ``np.random.default_rng`` cannot take as entropy."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")
