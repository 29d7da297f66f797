"""Exception types, and the rules for counts, magnitudes, paths, records,
sequences and arrays, shared across the package."""

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


# A matrix whose 2-norm condition number is above this is singular: the
# Newton Jacobians of she_solver and the phasor mesh of wpt_link
CONDITION_LIMIT = 1e12


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


def _as_order(name: str, value) -> int:
    """A harmonic order to eliminate (a target, an eliminated order) as an int:
    an odd integer >= 3, or an integral float, not a bool, nan or a string. The
    test below inf keeps numpy's remainder of an infinity from warning."""
    if not (isinstance(value, numbers.Real) and 3 <= value < math.inf and value % 2 == 1):
        raise ValidationError(f"{name}: {value!r} must be an odd integer >= 3")
    return int(value)


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
    - Once fha_solve's guard passes, cond_2 = sigma_1^2 / |det| <= 1e12 with
      sigma_1^2 >= F^2 / 2 and |det| = |Z22| |Z_in|, so |Z_in| >= F^2 / (2e12
      |Z22|) >= |Z22| / 2e12 >= 4e-28, as |Z22| >= r_ac >= 8.1e-16. Then
      |I1| <= 9.1e14 / 4e-28 < 2.3e42, |I2| = wM |I1| / |Z22| < 1.8e88 and
      P_out = |I2|^2 r_ac < 2.7e191: every field of the solution is finite.
    - simulate bounds no state but requires it finite. Its capacitor voltages
      peak near 4.26 V_dc on the table link, so about 4.3e15 V at the top of
      the domain, and its P_out then matches fha_solve's 2.0e28 W.
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


def _as_real_array(name: str, value) -> np.ndarray:
    """An array argument (times, samples, a state, amplitudes) as float64: one
    array numpy can hold, not a ragged list; of integers or reals, not bools,
    strings, complex numbers or objects; every element finite as a float64,
    so a long double past its range is refused. The caller tests its shape."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list, or an object numpy rejects
        raise ValidationError(f"{name}: numpy cannot hold it as one array") from None
    if array.dtype.kind in "iuf":
        with np.errstate(over="ignore"):  # the overflow is the inf tested next
            array = array.astype(float, copy=False)
    if array.dtype.kind != "f" or not np.isfinite(array).all():
        raise ValidationError(f"{name}: must be real and finite")
    return array
