"""Stepped multilevel inverter waveform model.

An N-level cascade switches layer i on at firing angle theta_i and off at
pi - theta_i (mirrored in the negative half cycle), so the output is a
quarter-wave-symmetric staircase whose Fourier series contains odd sine
terms only:

    b_n = (4 * V_step / (n * pi)) * sum_i cos(n * theta_i)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .reporting import _write_csv

__all__ = [
    "AngleSet",
    "SteppedWaveform",
    "synth",
    "harmonic_amplitude",
    "fundamental_rms",
    "total_rms",
    "interval_mean_samples",
    "waveform_to_csv",
]

# elements in the (rows, layers) buffer of angle_integral's reduction
# (512 KiB); a whole (points, layers) array is 7.5 MiB at 65,537 x 15
INTEGRAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class AngleSet:
    """Ordered firing angles of an N-level cascade, in radians."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)
        if len(angles) == 0:
            raise ValidationError("angles: at least one firing angle required")
        for i, a in enumerate(angles):
            if not math.isfinite(a) or not 0.0 < a < math.pi / 2:
                raise ValidationError(
                    f"angles[{i}]: {a!r} outside the open interval (0, pi/2)"
                )
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValidationError("angles: must be strictly increasing")

    @property
    def levels(self) -> int:
        return len(self.angles)

    @classmethod
    def from_degrees(cls, angles_deg) -> "AngleSet":
        return cls(tuple(math.radians(a) for a in angles_deg))

    def to_degrees(self) -> tuple[float, ...]:
        return tuple(math.degrees(a) for a in self.angles)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.angles, dtype=float)


def _fold(phase):
    """``(first, half, fold)``: is ``phase`` in the first half period, its angle
    within the half period, and that angle mirrored about pi/2 into [0, pi/2].

    The wrap into [0, 2 pi) is np.mod(phase, 2 pi) bit for bit. When every
    phase is in [0, 4 pi) it takes one subtraction instead: there the fmod
    that np.mod rests on is exact, so it returns x on [0, 2 pi) and x - 2 pi
    on [2 pi, 4 pi), and the float subtraction x - 2 pi is exact as well
    (Sterbenz lemma: 2 pi <= x <= 2 * 2 pi); ``+ 0.0`` turns -0.0 into the
    +0.0 that np.mod gives a zero remainder. Any other input, an empty
    array, NaN and +-inf included, goes through np.mod itself.
    """
    phase, two_pi = np.asarray(phase, dtype=float), 2 * math.pi
    if phase.size and 0.0 <= phase.min() and phase.max() < 2 * two_pi:
        phase = np.where(phase >= two_pi, phase - two_pi, phase + 0.0)
    else:
        phase = np.mod(phase, two_pi)
    first = phase < math.pi
    # np.mod(phase, pi) without a second divmod: phase - pi is exact on
    # [pi, 2 pi] (Sterbenz lemma)
    half = np.where(first, phase, phase - math.pi)
    return first, half, np.minimum(half, math.pi - half)


def _signed_level_count(thresholds: np.ndarray, phase) -> np.ndarray:
    """Signed count of layers conducting at electrical angle(s) ``phase``.

    Layer i conducts where thresholds[i] <= fold <= pi - thresholds[i] in
    the half period, with the sign of that half period.
    """
    first, _, fold = _fold(phase)
    return np.where(first, 1.0, -1.0) * np.searchsorted(thresholds, fold, side="right")


def _ramp_sums(fold: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_i max(0, fold - theta_i) for each element of ``fold``.

    The (points, K) terms are taken INTEGRAL_BLOCK at a time in one buffer,
    reused so that each block does not map fresh pages. Each row is the
    same contiguous K-term sum whatever the block, so the bits are those of
    one whole (points, K) pass.
    """
    flat = fold.reshape(-1)
    q = np.empty(flat.size)
    rows = max(1, INTEGRAL_BLOCK // theta.size)
    work = np.empty((min(rows, flat.size), theta.size))
    for lo in range(0, flat.size, rows):
        part = work[: min(rows, flat.size - lo)]
        np.subtract(flat[lo : lo + rows, None], theta, out=part)
        np.maximum(0.0, part, out=part)
        part.sum(axis=-1, out=q[lo : lo + rows])
    return q.reshape(fold.shape)


@dataclass(frozen=True)
class SteppedWaveform:
    """Multilevel staircase voltage: sum of the per-layer square waves."""

    angle_set: AngleSet
    step_voltage: float
    fundamental_frequency: float

    def __post_init__(self):
        for name in ("step_voltage", "fundamental_frequency"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name}: {v!r} must be finite and > 0")

    @property
    def period(self) -> float:
        return 1.0 / self.fundamental_frequency

    @property
    def peak(self) -> float:
        return self.angle_set.levels * self.step_voltage

    def sample_at(self, t):
        """Exact piecewise-constant evaluation at time(s) t."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValidationError("t: must be finite")
        omega = 2 * math.pi * self.fundamental_frequency
        out = self.step_voltage * _signed_level_count(self.angle_set.as_array(), omega * t)
        return float(out) if out.ndim == 0 else out

    def angle_integral(self, phase):
        """Integral of v over electrical angle from 0 to phase (volt-radians)."""
        theta = self.angle_set.as_array()
        first, half, fold = _fold(phase)  # full periods integrate to zero
        q = _ramp_sums(fold, theta)  # over [0, fold]
        q_top = np.maximum(0.0, math.pi / 2 - theta).sum()  # over the quarter wave
        # mirrored about pi/2; tests/test_waveform.py pins the rounding of the
        # grouping q_top + (q_top - q) bit for bit
        h = np.where(half > math.pi / 2, q_top + (q_top - q), q)
        out = self.step_voltage * np.where(first, h, 2 * q_top - h)
        return float(out) if out.ndim == 0 else out


def synth(angle_set: AngleSet, step_voltage: float, f1: float) -> SteppedWaveform:
    """Build the stepped waveform for a solved angle set."""
    return SteppedWaveform(
        angle_set=angle_set, step_voltage=step_voltage, fundamental_frequency=f1
    )


def _harmonic_amplitudes(theta: np.ndarray, step_voltage: float, orders) -> np.ndarray:
    """Signed b_n for an array of orders; even orders are exactly 0.0."""
    n = np.asarray(orders)
    amps = 4.0 * step_voltage / (n * math.pi) * np.cos(n[:, None] * theta).sum(axis=1)
    return np.where(n % 2 == 0, 0.0, amps)


def harmonic_amplitude(angle_set: AngleSet, step_voltage: float, n: int) -> float:
    """Peak amplitude of the n-th sine harmonic; exactly 0 for even n."""
    if not 1 <= n < math.inf or int(n) != n:  # nan fails the range too
        raise ValidationError(f"n: {n!r} must be a positive integer")
    return float(_harmonic_amplitudes(angle_set.as_array(), step_voltage, [n])[0])


def fundamental_rms(angle_set: AngleSet, step_voltage: float) -> float:
    return harmonic_amplitude(angle_set, step_voltage, 1) / math.sqrt(2.0)


def total_rms(angle_set: AngleSet, step_voltage: float) -> float:
    """Closed-form time-domain RMS over a quarter period."""
    theta = np.concatenate([[0.0], angle_set.as_array(), [math.pi / 2]])
    levels = np.arange(len(theta) - 1)
    mean_sq = (2.0 / math.pi) * float(np.sum(levels**2 * np.diff(theta)))
    return step_voltage * math.sqrt(mean_sq)


def interval_mean_samples(w: SteppedWaveform, count: int) -> np.ndarray:
    """Exact mean of v over each of ``count`` equal sub-intervals of one period.

    Area-accurate sampling: preserves the integral of the staircase even when
    switching edges fall between grid points.
    """
    if count < 2:
        raise ValidationError(f"count: {count!r} must be >= 2")
    edges = np.linspace(0.0, 2 * math.pi, count + 1)
    integral = w.angle_integral(edges)
    return np.diff(integral) / (2 * math.pi / count)


def waveform_to_csv(w: SteppedWaveform, path, samples: int = 8192):
    """One period of pointwise samples, header ``t_s,v_V``; returns ``(t, v)``."""
    if samples < 2:
        raise ValidationError(f"samples: {samples!r} must be >= 2")
    t = np.arange(samples) * (w.period / samples)
    v = w.sample_at(t)
    _write_csv(path, ["t_s", "v_V"], t, v)
    return t, v
