import math

import numpy as np
import pytest

from shewpt import (
    AngleSet,
    UndefinedThdError,
    ValidationError,
    analytic_spectrum,
    dft_spectrum,
    harmonic_amplitude,
    thd,
    thd_report,
    thd_total_closed_form,
    waveform_dft_spectrum,
)
from shewpt.spectrum import spectrum_to_csv
from shewpt.waveform import interval_mean_samples


def sine_samples(amplitude=1.0, count=8192):
    t = np.arange(count) / count
    return amplitude * np.sin(2 * math.pi * t)


class TestDftSpectrum:
    def test_pure_sinusoid(self):
        amp = 3.7
        spec = dft_spectrum(sine_samples(amp), 50.0, 99)
        assert abs(spec.amplitude(1) - amp) < 1e-9 * amp
        rest = max(spec.amplitude(n) for n in range(2, 100))
        assert rest < 1e-9 * amp

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError, match="power of two"):
            dft_spectrum(np.zeros(1000), 50.0, 9)

    def test_rejects_nyquist_violation(self):
        with pytest.raises(ValidationError, match="n_max"):
            dft_spectrum(np.zeros(64), 50.0, 60)


class TestWaveformSpectrum:
    def test_three_level_elimination(self, waveform_3):
        spec = waveform_dft_spectrum(waveform_3, 21)
        a1 = spec.amplitude(1)
        for n in (3, 5, 7):
            assert spec.amplitude(n) < 1e-6 * a1

    def test_four_level_elimination(self, waveform_4):
        spec = waveform_dft_spectrum(waveform_4, 21)
        a1 = spec.amplitude(1)
        for n in (3, 5, 7, 9):
            assert spec.amplitude(n) < 1e-6 * a1

    def test_agrees_with_analytic_up_to_99(self, waveform_3):
        spec = waveform_dft_spectrum(waveform_3, 99, samples_per_period=2**15)
        a1 = spec.amplitude(1)
        for n in range(1, 100):
            exact = abs(harmonic_amplitude(waveform_3.angle_set, 500.0, n))
            assert abs(spec.amplitude(n) - exact) < 1e-6 * a1

    def test_even_harmonic_energy_suppressed(self, waveform_3, waveform_4):
        for w in (waveform_3, waveform_4):
            spec = waveform_dft_spectrum(w, 99)
            fund_energy = spec.amplitude(1) ** 2
            even_energy = sum(spec.amplitude(n) ** 2 for n in range(2, 100, 2))
            assert even_energy < 1e-12 * fund_energy

    def test_cosine_components_vanish(self, waveform_3):
        # corrected bins of the sampled staircase must be purely imaginary
        count = 8192
        means = interval_mean_samples(waveform_3, count)
        bins = np.fft.rfft(means) / count
        n = np.arange(1, 100)
        hold = np.exp(1j * math.pi * n / count) * np.sinc(n / count)
        corrected = bins[1:100] / hold
        fund = 2 * abs(corrected[0])
        assert np.max(np.abs(corrected.real)) * 2 < 1e-9 * fund


class TestAnalyticSpectrum:
    def test_equals_per_order_formula(self, waveform_3, waveform_4):
        # the vectorised spectrum must equal the per-order closed form bit
        # for bit, with even orders exactly zero
        for w in (waveform_3, waveform_4):
            theta = w.angle_set.as_array()
            spec = analytic_spectrum(w.angle_set, w.step_voltage, 85e3, 999)
            for n in range(1, 1000):
                if n % 2 == 0:
                    assert spec.amplitudes[n] == 0.0
                    continue
                ref = 4.0 * w.step_voltage / (n * math.pi) * float(np.cos(n * theta).sum())
                assert spec.amplitudes[n] == abs(ref)
                assert spec.amplitudes[n] == abs(
                    harmonic_amplitude(w.angle_set, w.step_voltage, n)
                )


class TestThd:
    def test_pure_sinusoid_zero(self):
        spec = dft_spectrum(sine_samples(), 50.0, 99)
        assert thd(spec, 99) < 1e-9

    def test_three_level_first_21(self, waveform_3):
        spec = waveform_dft_spectrum(waveform_3, 21)
        assert thd(spec, 21) == pytest.approx(0.1514, abs=0.010)

    def test_four_level_first_21(self, waveform_4):
        spec = waveform_dft_spectrum(waveform_4, 21)
        assert thd(spec, 21) == pytest.approx(0.097, abs=0.010)

    def test_undefined_without_fundamental(self):
        spec = dft_spectrum(np.zeros(1024), 50.0, 9)
        with pytest.raises(UndefinedThdError):
            thd(spec, 9)

    def test_monotone_and_convergent(self, waveform_3):
        spec = analytic_spectrum(waveform_3.angle_set, 500.0, 85e3, 999)
        values = [thd(spec, n_max) for n_max in (21, 51, 101, 301, 999)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        closed = thd_total_closed_form(waveform_3.angle_set, 500.0)
        assert closed - values[-1] < 0.002
        assert values[-1] <= closed + 1e-12


class TestThdClosedForm:
    def test_three_level(self, solution_3):
        assert thd_total_closed_form(solution_3.angle_set, 500.0) == pytest.approx(
            0.185, abs=0.005
        )

    def test_four_level(self, solution_4):
        assert thd_total_closed_form(solution_4.angle_set, 375.0) == pytest.approx(
            0.128, abs=0.008
        )

    def test_square_wave(self):
        aset = AngleSet((1e-9,))
        assert thd_total_closed_form(aset, 500.0) == pytest.approx(
            math.sqrt(math.pi**2 / 8 - 1), rel=1e-6
        )


class TestThdReport:
    def test_report_invariants(self, waveform_3):
        report = thd_report(waveform_3, eliminated_orders=(3, 5, 7))
        assert report.thd_21 <= report.thd_total
        assert report.thd_21 >= 0
        assert report.eliminated_orders_max_relative < 1e-6

    def test_csv_export(self, waveform_3, tmp_path):
        spec = waveform_dft_spectrum(waveform_3, 21)
        path = tmp_path / "spec.csv"
        spectrum_to_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,f_Hz,amp_V,rel_to_fund"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(1.0)
