"""Exception types for the dcquartic library.

Every failure mode that callers are expected to branch on gets its own
class.  Validation failures additionally carry a short machine-readable
``reason`` string that the CLI prints verbatim.
"""


class DualityError(Exception):
    """Base class for all library errors."""


class ValidationError(DualityError):
    """A candidate problem instance violates a hypothesis.

    ``reason`` is one of: ``dimension-mismatch``, ``asymmetric-matrix``,
    ``nonpositive-gamma``, ``K-minus-A-not-PD``, ``non-finite`` or
    ``coercivity-heuristic-failed`` (decided exactly: every B_j is zero).
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class DimensionMismatchError(ValidationError):
    def __init__(self, message):
        super().__init__("dimension-mismatch", message)


class OutsideCstarError(DualityError):
    """A dual multiplier left the domain where the closed-form conjugate
    of the coupled convex part is valid."""


class NoConvergenceError(DualityError):
    """An iterative solve exhausted its iteration budget."""


class LeftCstarError(NoConvergenceError):
    """The inner maximizer's start is outside C*, or no trial step both
    stays in C* and lowers the residual."""


class AStarEmptyError(DualityError):
    """No strictly feasible point of A* was found near the start point."""


class SingularMatrixError(DualityError):
    """A matrix that only needs to be invertible is numerically singular."""


class DegenerateCriticalPointError(DualityError):
    """The inner curvature matrix is too ill conditioned to invert."""


class NotConvergedPairError(DualityError):
    """Second-order analysis was requested for a pair whose primal
    residual exceeds the converged threshold."""


class ProbeFailureError(DualityError):
    """A finite-difference probe point failed to evaluate."""


class NotCase2Error(DualityError):
    """A global-minimum certificate was requested for a pair that is not
    classified as case 2."""


class ParseError(DualityError):
    """An instance file does not conform to the strict schema."""
