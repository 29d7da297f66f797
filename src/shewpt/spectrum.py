"""Harmonic spectrum extraction and THD for periodic inverter waveforms.

One exact period, power-of-two sample count, no window: every harmonic
lands on its own bin. For staircase waveforms the transform runs on
area-accurate interval means with a per-bin zero-order-hold correction,
which suppresses the alias error of pointwise sampling of a discontinuous
signal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedThdError, ValidationError
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


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Peak harmonic amplitudes indexed by order n = 1..n_max."""

    fundamental_frequency: float
    amplitudes: np.ndarray  # amplitudes[n] is order n; index 0 unused
    source: str  # "analytic" | "dft"

    @property
    def n_max(self) -> int:
        return len(self.amplitudes) - 1

    def amplitude(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"n: {n!r} outside 1..{self.n_max}")
        return float(self.amplitudes[n])


@dataclass(frozen=True)
class ThdReport:
    thd_total: float  # closed form, full harmonic content
    thd_21: float
    band_total: int | None  # DFT band used for thd_band; None when unavailable
    thd_band: float | None
    eliminated_orders_max_relative: float


def _check_count(count: int, n_max: int):
    if n_max < 1:
        raise ValidationError(f"n_max: {n_max!r} must be >= 1")
    if count < 2 or count & (count - 1):
        raise ValidationError(f"samples: count {count} is not a power of two")
    if count < 2 * n_max + 2:
        raise ValidationError(
            f"n_max: {n_max} too large for {count} samples (Nyquist)"
        )


def dft_spectrum(samples, f1: float, n_max: int) -> HarmonicSpectrum:
    """Plain harmonic-aligned DFT of one uniformly sampled period."""
    samples = np.asarray(samples, dtype=float)
    _check_count(len(samples), n_max)
    bins = np.fft.rfft(samples) / len(samples)
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1])
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps, source="dft")


def analytic_spectrum(
    angle_set: AngleSet, step_voltage: float, f1: float, n_max: int
) -> HarmonicSpectrum:
    """Closed-form Fourier amplitudes of the staircase."""
    amps = np.zeros(n_max + 1)
    orders = np.arange(1, n_max + 1)
    amps[1:] = np.abs(_harmonic_amplitudes(angle_set.as_array(), step_voltage, orders))
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps, source="analytic")


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
    _check_count(samples_per_period, n_max)
    means = interval_mean_samples(w, samples_per_period)
    bins = np.fft.rfft(means) / samples_per_period
    n = np.arange(1, n_max + 1)
    hold = np.exp(1j * math.pi * n / samples_per_period) * np.sinc(
        n / samples_per_period
    )
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1] / hold)
    return HarmonicSpectrum(
        fundamental_frequency=w.fundamental_frequency, amplitudes=amps, source="dft"
    )


def thd(spectrum: HarmonicSpectrum, n_max: int) -> float:
    """sqrt(sum of A_n^2 for n=2..n_max) / A_1."""
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
    if v1 == 0.0:
        raise UndefinedThdError("fundamental amplitude is zero; THD undefined")
    return math.sqrt(max(0.0, (v_rms / v1) ** 2 - 1.0))


def thd_report(
    w: SteppedWaveform,
    eliminated_orders=(),
    band_total: int = 999,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> ThdReport:
    spec = waveform_dft_spectrum(
        w, n_max=max(21, band_total), samples_per_period=samples_per_period
    )
    a1 = spec.amplitudes[1]
    rel = 0.0
    for n in eliminated_orders:
        rel = max(rel, spec.amplitude(n) / a1)
    return ThdReport(
        thd_total=thd_total_closed_form(w.angle_set, w.step_voltage),
        thd_21=thd(spec, 21),
        band_total=band_total,
        thd_band=thd(spec, band_total),
        eliminated_orders_max_relative=rel,
    )


def spectrum_to_csv(spectrum: HarmonicSpectrum, path) -> None:
    """Header ``n,f_Hz,amp_V,rel_to_fund``."""
    a1 = float(spectrum.amplitudes[1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "f_Hz", "amp_V", "rel_to_fund"])
        for n in range(1, spectrum.n_max + 1):
            amp = float(spectrum.amplitudes[n])
            writer.writerow(
                [
                    n,
                    repr(n * spectrum.fundamental_frequency),
                    repr(amp),
                    repr(amp / a1 if a1 else math.nan),
                ]
            )
