"""Exception types, and the rules for counts, magnitudes, paths, records and
sequences, shared across the package."""

import math
import numbers
import os

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


# The magnitude domain: every voltage, frequency, component value and lattice
# step lies in [MAGNITUDE_MIN, MAGNITUDE_MAX], or is exactly 0 where zero is
# allowed.
MAGNITUDE_MIN = 1e-15
MAGNITUDE_MAX = 1e15


def _check_magnitude(name: str, value, allow_zero: bool = False) -> None:
    """A magnitude (a voltage, a frequency, a component value, a lattice step)
    is a real number, not a bool or a string, finite and > 0, or >= 0 where
    ``allow_zero``, and a nonzero one lies in [MAGNITUDE_MIN, MAGNITUDE_MAX].
    It is compared as a Python float, so a float32 meets the same bound.

    Why nothing overflows or underflows inside the domain, with K levels:
    - A staircase's peak is K V <= K 1e15, each |b_n| <= (4 / pi) K 1e15, and
      a DFT's partial sums are at most N K 1e15 over N samples, so the squares
      summed into a THD are finite for any K and band that fit in memory.
    - Each angle is below pi/2 as a float, so cos(theta_max) > 2.8e-16 and
      A_1 >= (4 / pi) 1e-15 cos(theta_max) > 3.6e-31: A_1^2 > 1.3e-61 is a
      normal float, and a THD is never 0.0 for want of range.
    - In the link, w = 2 pi f_s <= 6.3e15, so every reactance, |Z11|, |Z22|
      and wM is at most about 1e31, and the diode-drop quadratic's |a|^2,
      b^2 and |a|^2 |c| at most about 1e124, 1e185 and 1e216.
    - Its c = -(emf - drop)(emf + drop) with emf > drop and emf = wM |V1| >=
      2 pi 1e-45 0.9e-15 > 5.6e-60, so -c >= 2^-53 emf^2 > 3.5e-135, never
      below the least normal float, and the added load e / |I2| stays finite.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (real and (value > 0 or allow_zero and value == 0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name}: {value!r} must be finite and {bound}")
    if value and not MAGNITUDE_MIN <= float(value) <= MAGNITUDE_MAX:
        raise ValidationError(
            f"{name}: {value!r} is outside [{MAGNITUDE_MIN:g}, {MAGNITUDE_MAX:g}]"
        )


def _check_path(path) -> None:
    """A file path is a string or a path object. open() would take an integer
    (a bool, a numpy integer) as a file descriptor, and close it after, and
    bytes; ``str(path)`` of anything else names a file of its repr."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"path: {path!r} is not a string or a path object")


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
