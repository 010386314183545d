"""Typed errors raised by model fitting and simulation code.

``ValueError`` is reserved for malformed inputs (bad dimensions, bad file
contents, invalid configuration); the classes here signal numerical or
model-level failure on well-formed inputs.  The CLI maps the former to
exit code 2 and the latter to exit code 1.
"""


class InputValueError(ValueError):
    """An input's values cannot be fit: a non-finite value, values so large or
    small that a number the fit reports is no float in their units, values
    outside their range (0/1 responses and events, positive times), or row
    counts that do not match.  ``inputs`` names the inputs at fault, among
    ``"covariates"``, ``"response"``, ``"time"`` and ``"event"``, so that the
    CLI can name their files."""

    def __init__(self, message: str, *inputs: str):
        super().__init__(message)
        self.inputs = inputs


class ModelError(Exception):
    """Base class for numerical / model-level failures."""


class DegenerateDesignError(ModelError):
    """Design matrix has no usable columns or is rank deficient."""


class ConvergenceError(ModelError):
    """An iterative solver failed to converge within its iteration budget."""


class SeparationError(ModelError):
    """Logistic likelihood is unbounded (perfectly separated data)."""


class SingularMatrixError(ModelError):
    """A matrix that must be invertible is numerically singular."""
