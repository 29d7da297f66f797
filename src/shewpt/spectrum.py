"""Harmonic spectrum extraction and THD for periodic inverter waveforms.

One exact period, power-of-two sample count, no window: every harmonic
lands on its own bin. For staircase waveforms the transform runs on
area-accurate interval means with a per-bin zero-order-hold correction,
which suppresses the alias error of pointwise sampling of a discontinuous
signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedThdError, ValidationError, _check_count
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
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or not np.isfinite(samples).all():
        raise ValidationError("samples: must be one period of finite values")
    _check_dft_size(len(samples), n_max)
    bins = np.fft.rfft(samples) / len(samples)
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1])
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps)


def analytic_spectrum(
    angle_set: AngleSet, step_voltage: float, f1: float, n_max: int
) -> HarmonicSpectrum:
    """Closed-form Fourier amplitudes of the staircase."""
    _check_count("n_max", n_max, 1)
    amps = np.zeros(n_max + 1)
    orders = np.arange(1, n_max + 1)
    amps[1:] = np.abs(_harmonic_amplitudes(angle_set.as_array(), step_voltage, orders))
    return HarmonicSpectrum(fundamental_frequency=f1, amplitudes=amps)


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
    bins = np.fft.rfft(means) / samples_per_period
    n = np.arange(1, n_max + 1)
    hold = np.exp(1j * math.pi * n / samples_per_period) * np.sinc(
        n / samples_per_period
    )
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1] / hold)
    return HarmonicSpectrum(
        fundamental_frequency=w.fundamental_frequency, amplitudes=amps
    )


def thd(spectrum: HarmonicSpectrum, n_max: int) -> float:
    """sqrt(sum of A_n^2 for n=2..n_max) / A_1."""
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
    if v1 == 0.0:
        raise UndefinedThdError("fundamental amplitude is zero; THD undefined")
    return math.sqrt(max(0.0, (v_rms / v1) ** 2 - 1.0))


def _band_orders(band_total: int, samples_per_period: int) -> int:
    """Orders the THD band takes from the DFT; fewer samples than they need
    are rejected."""
    n_max = max(21, band_total)
    if samples_per_period < 2 * n_max + 2:
        raise ValidationError(
            f"samples_per_period: {samples_per_period} too few for the "
            f"{n_max}-order THD band (Nyquist)"
        )
    return n_max


def _report_from_spectrum(
    w: SteppedWaveform, spec: HarmonicSpectrum, eliminated_orders, band_total: int
) -> ThdReport:
    # only the band's orders: an eliminated order past them is out of range
    # even when spec runs further
    spec = HarmonicSpectrum(
        spec.fundamental_frequency, spec.amplitudes[: max(21, band_total) + 1]
    )
    a1 = spec.amplitude(1)
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


def thd_report(
    w: SteppedWaveform,
    eliminated_orders=(),
    band_total: int = THD_BAND_TOTAL,
    samples_per_period: int = DEFAULT_SAMPLES_PER_PERIOD,
) -> ThdReport:
    n_max = _band_orders(band_total, samples_per_period)
    spec = waveform_dft_spectrum(w, n_max=n_max, samples_per_period=samples_per_period)
    return _report_from_spectrum(w, spec, eliminated_orders, band_total)


def _spectrum_and_thd_report(
    w: SteppedWaveform, n_max: int, eliminated_orders, samples_per_period: int
) -> tuple[HarmonicSpectrum, ThdReport]:
    """waveform_dft_spectrum(w, n_max, samples_per_period) and the default
    thd_report of w at that count, from one DFT.

    The DFT runs to the larger of n_max and the band; each order's
    amplitude is an elementwise function of its bin, so the orders up to
    n_max are the bits a DFT to n_max gives. The inputs are checked as the
    two calls would check them, in the same order.
    """
    _check_dft_size(samples_per_period, n_max)
    band = _band_orders(THD_BAND_TOTAL, samples_per_period)
    spec = waveform_dft_spectrum(w, max(n_max, band), samples_per_period)
    report = _report_from_spectrum(w, spec, eliminated_orders, THD_BAND_TOTAL)
    return HarmonicSpectrum(spec.fundamental_frequency, spec.amplitudes[: n_max + 1]), report


def spectrum_to_csv(spectrum: HarmonicSpectrum, path) -> None:
    """Header ``n,f_Hz,amp_V,rel_to_fund``."""
    n = np.arange(1, spectrum.n_max + 1)
    amps = spectrum.amplitudes[1:]
    a1 = amps[0]
    rel = amps / a1 if a1 else np.full_like(amps, math.nan)
    _write_csv(
        path, ["n", "f_Hz", "amp_V", "rel_to_fund"],
        n, n * spectrum.fundamental_frequency, amps, rel,
    )
