"""Stepped multilevel inverter waveform model.

An N-level cascade switches layer i on at firing angle theta_i and off at
pi - theta_i (mirrored in the negative half cycle), so the output is a
quarter-wave-symmetric staircase whose Fourier series contains odd sine
terms only:

    b_n = (4 * V_step / (n * pi)) * sum_i cos(n * theta_i)
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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


def _signed_level_count(thresholds: np.ndarray, phase) -> np.ndarray:
    """Signed count of layers conducting at electrical angle(s) ``phase``.

    Layer i conducts where thresholds[i] <= fold <= pi - thresholds[i] in
    the half period, with the sign of that half period.
    """
    phase = np.mod(np.asarray(phase, dtype=float), 2 * math.pi)
    half = np.mod(phase, math.pi)
    sign = np.where(phase < math.pi, 1.0, -1.0)
    fold = np.minimum(half, math.pi - half)
    return sign * np.searchsorted(thresholds, fold, side="right")


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

    def level_at_angle(self, phase):
        """Signed level count (integer in [-N, N]) at electrical angle(s)."""
        return _signed_level_count(self.angle_set.as_array(), phase)

    def sample_at(self, t):
        """Exact piecewise-constant evaluation at time(s) t."""
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ValidationError("t: must be finite")
        omega = 2 * math.pi * self.fundamental_frequency
        out = self.step_voltage * self.level_at_angle(omega * t)
        return float(out) if out.ndim == 0 else out

    def angle_integral(self, phase):
        """Integral of v over electrical angle from 0 to phase (volt-radians)."""
        phase = np.asarray(phase, dtype=float)
        theta = self.angle_set.as_array()

        def quarter(y):
            # integral of the level count over [0, y], y in [0, pi/2]
            return np.maximum(0.0, y[..., None] - theta).sum(axis=-1)

        def half(y):
            # integral over [0, y], y in [0, pi]; symmetric about pi/2
            q_top = quarter(np.full_like(y, math.pi / 2))
            lo = quarter(np.minimum(y, math.pi / 2))
            hi = q_top - quarter(np.minimum(math.pi - y, math.pi / 2))
            return lo + np.where(y > math.pi / 2, hi, 0.0)

        wraps = np.floor(phase / (2 * math.pi))
        rem = phase - wraps * 2 * math.pi  # full periods integrate to zero
        in_second = rem > math.pi
        rem_half = np.where(in_second, rem - math.pi, rem)
        h = half(rem_half)
        h_full = half(np.full_like(rem_half, math.pi))
        val = np.where(in_second, h_full - h, h)
        out = self.step_voltage * val
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
    if n < 1 or int(n) != n:
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


def waveform_to_csv(w: SteppedWaveform, path, samples: int = 8192) -> None:
    """One period of pointwise samples, header ``t_s,v_V``."""
    if samples < 2:
        raise ValidationError(f"samples: {samples!r} must be >= 2")
    t = np.arange(samples) * (w.period / samples)
    v = w.sample_at(t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "v_V"])
        for ti, vi in zip(t, v):
            writer.writerow([repr(float(ti)), repr(float(vi))])
