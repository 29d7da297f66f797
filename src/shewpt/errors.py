"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input failed a precondition; the message names the offending field."""


class DimensionMismatchError(ValidationError):
    """Angle count does not match the number of harmonic targets."""


class SingularMatrixError(RuntimeError):
    """A linear system matrix is numerically singular."""


class DivergenceError(RuntimeError):
    """An iteration or integration left its admissible region."""


class NonConvergenceError(RuntimeError):
    """An iteration hit its cap; Newton failures carry the best iterate seen."""

    def __init__(self, message, best_angles=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.best_angles = best_angles
        self.residual_norm = residual_norm
        self.iterations = iterations


class UndefinedThdError(ValidationError):
    """THD is undefined because the fundamental amplitude is zero."""
