"""Exception types shared across the library."""


class LpopaError(Exception):
    """Base class for all library-specific errors."""


class AdmissibilityError(LpopaError):
    """A weight sequence fails the growth conditions it declares."""


class UnsupportedExponentError(LpopaError):
    """An operation was asked for an exponent p outside its valid range."""


class InexactDivisionError(LpopaError):
    """Polynomial division left a remainder above tolerance."""

    def __init__(self, message, remainder=None, relative=None):
        super().__init__(message)
        self.remainder = remainder
        self.relative = relative


class DegreeCapError(LpopaError, ValueError):
    """An order n whose residual 1 - P f would pass the polynomial degree cap."""


class IllConditionedError(LpopaError):
    """A linear system is too ill-conditioned to solve reliably."""


class InternalConsistencyError(LpopaError):
    """Two routes to the same quantity disagreed beyond tolerance."""


class SweepError(LpopaError):
    """One or more sweep points failed to converge, or one order's solve raised.

    ``points`` holds every point of the sweep, the failed ones included, so
    callers can still write partial results; after a solve that raised
    (``__cause__``), the points of the orders before the last of
    ``failed_orders``, whose solve it was.
    """

    def __init__(self, message, failed_orders=(), points=()):
        super().__init__(message)
        self.failed_orders = tuple(failed_orders)
        self.points = list(points)
