"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input -> 2, numerical
failure -> 3, size refusal -> 4.
"""


class InvalidInputError(ValueError):
    """Malformed instance, labeling (booleans included), cost matrix (not
    square, not symmetric, or not the size of its manifold), or
    configuration."""


class NumericalFailureError(RuntimeError):
    """Solver hit a non-finite value.  Carries the last valid iterate."""

    def __init__(self, message, last_point=None):
        super().__init__(message)
        self.last_point = last_point


class DegenerateStepError(NumericalFailureError):
    """A retraction step collapsed a sphere row to (numerically) zero."""


class SizeRefusalError(RuntimeError):
    """Exhaustive enumeration refused: state space exceeds the budget."""
