"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "SchemaError", "ValidationError"]


class ValidationError(ValueError):
    """Input data violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """A symmetric eigensolve did not converge."""


class SchemaError(ValueError):
    """A JSON document does not match the expected layout."""
