"""Exception types, and the rules for counts, magnitudes, paths, records and
sequences, shared across the package."""

import math
import numbers

import numpy as np


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


def _check_count(name: str, value, minimum: int) -> None:
    """A count (samples, orders, iterations, steps) is an int or a numpy
    integer, not a bool or a float of any value, and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name}: {value!r} must be an integer")
    if value < minimum:
        raise ValidationError(f"{name}: {value!r} must be >= {minimum}")


def _check_magnitude(name: str, value, allow_zero: bool = False) -> None:
    """A magnitude (a voltage, a frequency, a component value, a lattice step)
    is a real number, not a bool or a string, finite and > 0, or >= 0 where
    ``allow_zero``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (real and (value > 0 or allow_zero and value == 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name}: {value!r} must be finite and {bound}")


def _check_path(path) -> None:
    """A file path is a string or a path object. open() takes an integer (a
    bool, a numpy integer) as a file descriptor, and closes it after."""
    if isinstance(path, (int, np.integer)):
        raise ValidationError(f"path: {path!r} is an integer, not a file path")


def _check_record(name: str, value, kind: type) -> None:
    """A record argument (an ``AngleSet``, a ``HarmonicTargetSet``) is an
    instance of its class, not a tuple or a list of its fields."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name}: {value!r} is not a {kind.__name__}")


def _as_tuple(name: str, values) -> tuple:
    """The items of ``values``; a bare value is not a sequence."""
    try:
        items = iter(values)
    except TypeError:
        raise ValidationError(f"{name}: {values!r} is not a sequence") from None
    return tuple(items)
