"""Harmonic spectrum extraction and THD for periodic inverter waveforms.

One exact period, power-of-two sample count, no window: every harmonic
lands on its own bin. For staircase waveforms the transform runs on
area-accurate interval means with a per-bin zero-order-hold correction,
which suppresses the alias error of pointwise sampling of a discontinuous
signal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedThdError, ValidationError, _as_order, _as_real_array, _as_tuple
from .errors import _check_count, _check_magnitude, _check_record
from .reporting import _write_csv
from .waveform import (
    AngleSet,
    SteppedWaveform,
    _harmonic_amplitudes,
    fundamental_rms,
    interval_mean_samples,
    total_rms,
)

__all__ = [
    "HarmonicSpectrum",
    "ThdReport",
    "dft_spectrum",
    "analytic_spectrum",
    "waveform_dft_spectrum",
    "thd",
    "thd_total_closed_form",
    "thd_report",
    "spectrum_to_csv",
]

DEFAULT_SAMPLES_PER_PERIOD = 8192
# orders of the THD band of thd_report
THD_BAND_TOTAL = 999


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Peak harmonic amplitudes indexed by order n = 1..n_max."""

    fundamental_frequency: float
    amplitudes: np.ndarray  # amplitudes[n] is order n; index 0 unused

    def __post_init__(self):
        _check_magnitude("fundamental_frequency", self.fundamental_frequency)
        amplitudes = _as_real_array("amplitudes", self.amplitudes)
        if amplitudes.ndim != 1 or len(amplitudes) < 2:
            raise ValidationError("amplitudes: must be one row of index 0 and orders 1 and up")
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def n_max(self) -> int:
        return len(self.amplitudes) - 1

    def amplitude(self, n: int) -> float:
        _check_count("n", n, 1)
        if n > self.n_max:
            raise ValidationError(f"n: {n!r} outside 1..{self.n_max}")
        return float(self.amplitudes[n])


@dataclass(frozen=True)
class ThdReport:
    thd_total: float  # closed form, full harmonic content
    thd_21: float
    band_total: int  # DFT band used for thd_band
    thd_band: float
    eliminated_orders_max_relative: float


def _check_dft_size(count: int, n_max: int):
    _check_count("n_max", n_max, 1)
    _check_count("samples", count, 2)
    if count & (count - 1):
        raise ValidationError(f"samples: count {count} is not a power of two")
    if count < 2 * n_max + 2:
        raise ValidationError(
            f"n_max: {n_max} too large for {count} samples (Nyquist)"
        )


def dft_spectrum(samples, f1: float, n_max: int) -> HarmonicSpectrum:
    """Plain harmonic-aligned DFT of one uniformly sampled period."""
    _check_magnitude("f1", f1)
    samples = _as_real_array("samples", samples)
    if samples.ndim != 1:
        raise ValidationError("samples: must be a row of one period")
    _check_dft_size(len(samples), n_max)
    bins = np.fft.rfft(samples) / len(samples)
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1])
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps)


def analytic_spectrum(
    angle_set: AngleSet, step_voltage: float, f1: float, n_max: int
) -> HarmonicSpectrum:
    """Closed-form Fourier amplitudes of the staircase."""
    _check_record("angle_set", angle_set, AngleSet)
    _check_count("n_max", n_max, 1)
    _check_magnitude("f1", f1)
    amps = np.zeros(n_max + 1)
    orders = np.arange(1, n_max + 1)
    amps[1:] = np.abs(_harmonic_amplitudes(angle_set.as_array(), step_voltage, orders))
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps)


@functools.lru_cache(maxsize=8)
def _hold_factor(samples_per_period: int, n_max: int) -> np.ndarray:
    """exp(i*pi*n/N) * sinc(n/N) for n = 1..n_max, N = samples_per_period;
    read-only, as every caller with that size shares it."""
    n = np.arange(1, n_max + 1)
    hold = np.exp(1j * math.pi * n / samples_per_period) * np.sinc(n / samples_per_period)
    hold.flags.writeable = False
    return hold


def waveform_dft_spectrum(
    w: SteppedWaveform,
    n_max: int,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> HarmonicSpectrum:
    """DFT of the staircase via interval means plus hold-factor correction.

    Each sample is the exact mean of v over its interval; dividing bin n by
    the zero-order-hold factor exp(i*pi*n/N)*sinc(n/N) recovers the
    continuous-waveform harmonic with alias leakage O(n / N^2).
    """
    _check_dft_size(samples_per_period, n_max)
    means = interval_mean_samples(w, samples_per_period)
    bins = np.fft.rfft(means)[: n_max + 1] / samples_per_period
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1:] / _hold_factor(samples_per_period, n_max))
    return HarmonicSpectrum(
        fundamental_frequency=w.fundamental_frequency, amplitudes=amps
    )


def thd(spectrum: HarmonicSpectrum, n_max: int) -> float:
    """sqrt(sum of A_n^2 for n=2..n_max) / A_1."""
    _check_record("spectrum", spectrum, HarmonicSpectrum)
    if isinstance(n_max, float) and n_max.is_integer():
        n_max = int(n_max)  # an integral float names that count
    _check_count("n_max", n_max, 1)
    if n_max > spectrum.n_max:
        raise ValidationError(
            f"n_max: {n_max} beyond spectrum coverage {spectrum.n_max}"
        )
    a1 = spectrum.amplitudes[1]
    if a1 == 0.0:
        raise UndefinedThdError("fundamental amplitude is zero; THD undefined")
    harm = spectrum.amplitudes[2 : n_max + 1]
    return float(np.sqrt(np.sum(harm**2)) / a1)


def thd_total_closed_form(angle_set: AngleSet, step_voltage: float) -> float:
    """Untruncated THD via Parseval: sqrt(V_rms^2 / V_rms1^2 - 1)."""
    v_rms = total_rms(angle_set, step_voltage)
    v1 = fundamental_rms(angle_set, step_voltage)
    return math.sqrt(max(0.0, (v_rms / v1) ** 2 - 1.0))


def thd_report(
    w: SteppedWaveform,
    eliminated_orders=(),
    band_total: int = THD_BAND_TOTAL,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> ThdReport:
    """THD over 21 and over band_total orders, and the largest eliminated order
    relative to the fundamental, from one DFT to max(21, band_total) orders."""
    _check_record("w", w, SteppedWaveform)
    _check_count("band_total", band_total, 1)
    _check_count("samples_per_period", samples_per_period, 2)
    eliminated_orders = [
        _as_order(f"eliminated_orders[{i}]", n)
        for i, n in enumerate(_as_tuple("eliminated_orders", eliminated_orders))
    ]
    band = max(21, band_total)
    if samples_per_period < 2 * band + 2:
        raise ValidationError(
            f"samples_per_period: {samples_per_period} too few for the "
            f"{band}-order THD band (Nyquist)"
        )
    spec = waveform_dft_spectrum(w, band, samples_per_period)
    a1 = spec.amplitude(1)
    rel = max((spec.amplitude(n) / a1 for n in eliminated_orders), default=0.0)
    return ThdReport(
        thd_total=thd_total_closed_form(w.angle_set, w.step_voltage),
        thd_21=thd(spec, 21),
        band_total=band_total,
        thd_band=thd(spec, band_total),
        eliminated_orders_max_relative=rel,
    )


def spectrum_to_csv(spectrum: HarmonicSpectrum, path) -> None:
    """Header ``n,f_Hz,amp_V,rel_to_fund``."""
    _check_record("spectrum", spectrum, HarmonicSpectrum)
    n = np.arange(1, spectrum.n_max + 1)
    amps = spectrum.amplitudes[1:]
    a1 = amps[0]
    rel = amps / a1 if a1 else np.full_like(amps, math.nan)
    _write_csv(
        path, ["n", "f_Hz", "amp_V", "rel_to_fund"],
        n, n * spectrum.fundamental_frequency, amps, rel,
    )
