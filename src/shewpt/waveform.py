"""Stepped multilevel inverter waveform model.

An N-level cascade switches layer i on at firing angle theta_i and off at
pi - theta_i (mirrored in the negative half cycle), so the output is a
quarter-wave-symmetric staircase whose Fourier series contains odd sine
terms only:

    b_n = (4 * V_step / (n * pi)) * sum_i cos(n * theta_i)

The staircase is held once, as its sorted edge table over one period, and
the interval means, the pointwise samples and the angle integral all read
it. Like the transient drive, it is right-continuous: at an edge, the level
after it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _as_real_array, _as_tuple, _check_count
from .errors import _check_magnitude, _check_record
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

@dataclass(frozen=True)
class AngleSet:
    """Ordered firing angles of an N-level cascade, in radians."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = _as_tuple("angles", self.angles)
        if len(angles) == 0:
            raise ValidationError("angles: at least one firing angle required")
        for i, a in enumerate(angles):
            # numpy floats are Real; a string is not, and a bool is no angle
            real = isinstance(a, numbers.Real) and not isinstance(a, bool)
            if not (real and math.isfinite(a) and 0.0 < a < math.pi / 2):
                raise ValidationError(
                    f"angles[{i}]: {a!r} is not a real number in the open interval (0, pi/2)"
                )
        angles = tuple(float(a) for a in angles)
        object.__setattr__(self, "angles", angles)
        if any(b <= a for a, b in zip(angles, angles[1:])):
            raise ValidationError("angles: must be strictly increasing")

    @property
    def levels(self) -> int:
        return len(self.angles)

    @classmethod
    def from_degrees(cls, angles_deg) -> "AngleSet":
        values = _as_tuple("angles", angles_deg)
        # what is not a real number, or is a bool, goes on as it is, for the
        # angles' rule
        return cls(tuple(
            math.radians(a) if isinstance(a, numbers.Real) and not isinstance(a, bool) else a
            for a in values
        ))

    def to_degrees(self) -> tuple[float, ...]:
        return tuple(math.degrees(a) for a in self.angles)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.angles, dtype=float)


def _edge_table(theta: np.ndarray):
    """The staircase over one period as its sorted edges ``(positions,
    jumps)``, in periods and in the signed layer count: layer i switches on
    at u_i = theta_i / 2 pi and off at 1/2 - u_i, and with the other sign at
    1/2 + u_i and 1 - u_i. A first edge of no jump at 0 opens level 0."""
    u = theta / (2 * math.pi)
    pos = np.concatenate(([0.0], u, 0.5 - u[::-1], 0.5 + u, 1.0 - u[::-1]))
    return pos, np.concatenate(([0.0], np.repeat([1.0, -1.0, -1.0, 1.0], u.size)))


def _interval_means(theta: np.ndarray, count: int) -> np.ndarray:
    """Mean signed layer count over each of ``count`` equal intervals of one
    period: the level at the interval's start plus, for each edge inside it,
    the jump times the part of the interval after the edge. An interval that
    holds no edge is its level exactly; an edge at the period's end is in none.

    Each run of intervals up to the next edge-holding one is filled with the
    level before it (a sum of +-1 jumps, so exact); then each edge-holding
    interval adds its edges' terms, summed in edge order from 0.0 as
    np.bincount sums them. One interval past the period takes an edge at its
    end, and is cut off."""
    pos, jump = _edge_table(theta)
    pos = pos * count  # in intervals
    k = pos.astype(np.intp)  # the interval that holds each edge (pos >= 0), sorted
    bounds = np.concatenate(([-1], k, [count]))
    runs = bounds[1:] - bounds[:-1]
    means = np.repeat(np.concatenate(([0.0], np.cumsum(jump))), runs)
    first = runs[:-1] > 0  # the first edge in each edge-holding interval
    means[k[first]] += np.bincount(np.cumsum(first) - 1, jump * (k + 1 - pos))
    return means[:count]


@dataclass(frozen=True)
class SteppedWaveform:
    """Multilevel staircase voltage: sum of the per-layer square waves."""

    angle_set: AngleSet
    step_voltage: float
    fundamental_frequency: float

    def __post_init__(self):
        _check_record("angle_set", self.angle_set, AngleSet)
        _check_magnitude("step_voltage", self.step_voltage)
        _check_magnitude("fundamental_frequency", self.fundamental_frequency)

    @property
    def period(self) -> float:
        return 1.0 / self.fundamental_frequency

    @property
    def peak(self) -> float:
        return self.angle_set.levels * self.step_voltage

    def _locate(self, name, value, period):
        """``(x, pos, level, i)``: ``value`` wrapped into [0, period) and
        given in periods, the edge table's positions and the level from each
        edge on, and the index of the last edge at or before each x, so the
        staircase is right-continuous, as the interval means read it.
        ``value`` (the argument ``name``) is an array argument of any shape."""
        x = np.mod(_as_real_array(name, value), period) / period
        pos, jump = _edge_table(self.angle_set.as_array())
        return x, pos, np.cumsum(jump), np.searchsorted(pos, x, side="right") - 1

    def sample_at(self, t):
        """v at time(s) t; at an edge, the level after it."""
        _, _, level, i = self._locate("t", t, self.period)
        out = self.step_voltage * level[i]  # the sums of +-1 jumps give +0.0, never -0.0
        return float(out) if out.ndim == 0 else out

    def angle_integral(self, phase):
        """Integral of v over electrical angle from 0 to phase (volt-radians)."""
        # full periods integrate to zero
        x, pos, level, i = self._locate("phase", phase, 2 * math.pi)
        area = np.concatenate(([0.0], np.cumsum(level[:-1] * np.diff(pos))))
        out = (2 * math.pi * self.step_voltage) * (area[i] + level[i] * (x - pos[i]))
        return float(out) if out.ndim == 0 else out


def synth(angle_set: AngleSet, step_voltage: float, f1: float) -> SteppedWaveform:
    """Build the stepped waveform for a solved angle set."""
    _check_magnitude("f1", f1)
    return SteppedWaveform(
        angle_set=angle_set, step_voltage=step_voltage, fundamental_frequency=f1
    )


def _harmonic_amplitudes(theta: np.ndarray, step_voltage: float, orders) -> np.ndarray:
    """Signed b_n for an array of orders; even orders are exactly 0.0, and
    only the odd orders take cosines."""
    _check_magnitude("step_voltage", step_voltage)
    n = np.asarray(orders)
    odd = n % 2 != 0
    amps = np.zeros(n.shape)
    n = n[odd]
    amps[odd] = 4.0 * step_voltage / (n * math.pi) * np.cos(n[:, None] * theta).sum(axis=1)
    return amps


def harmonic_amplitude(angle_set: AngleSet, step_voltage: float, n: int) -> float:
    """Peak amplitude of the n-th sine harmonic; exactly 0 for even n."""
    _check_record("angle_set", angle_set, AngleSet)
    # nan fails, and a bool is no order
    real = isinstance(n, numbers.Real) and not isinstance(n, bool)
    if not (real and 1 <= n < math.inf and int(n) == n):
        raise ValidationError(f"n: {n!r} must be a positive integer")
    return float(_harmonic_amplitudes(angle_set.as_array(), step_voltage, [n])[0])


def fundamental_rms(angle_set: AngleSet, step_voltage: float) -> float:
    return harmonic_amplitude(angle_set, step_voltage, 1) / math.sqrt(2.0)


def total_rms(angle_set: AngleSet, step_voltage: float) -> float:
    """Closed-form time-domain RMS over a quarter period."""
    _check_record("angle_set", angle_set, AngleSet)
    _check_magnitude("step_voltage", step_voltage)
    theta = np.concatenate([[0.0], angle_set.as_array(), [math.pi / 2]])
    levels = np.arange(len(theta) - 1)
    mean_sq = (2.0 / math.pi) * float(np.sum(levels**2 * np.diff(theta)))
    return step_voltage * math.sqrt(mean_sq)


def interval_mean_samples(w: SteppedWaveform, count: int) -> np.ndarray:
    """Exact mean of v over each of ``count`` equal sub-intervals of one period.

    Area-accurate sampling: preserves the integral of the staircase even when
    switching edges fall between grid points.
    """
    _check_record("w", w, SteppedWaveform)
    _check_count("count", count, 2)
    return w.step_voltage * _interval_means(w.angle_set.as_array(), count)


def waveform_to_csv(w: SteppedWaveform, path, samples: int = 8192):
    """One period of pointwise samples, header ``t_s,v_V``; returns ``(t, v)``."""
    _check_record("w", w, SteppedWaveform)
    _check_count("samples", samples, 2)
    t = np.arange(samples) * (w.period / samples)
    v = w.sample_at(t)
    _write_csv(path, ["t_s", "v_V"], t, v)
    return t, v
