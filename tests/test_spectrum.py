import csv
import dataclasses
import math

import numpy as np
import pytest

from shewpt import (
    AngleSet,
    HarmonicTargetSet,
    UndefinedThdError,
    ValidationError,
    analytic_spectrum,
    dft_spectrum,
    harmonic_amplitude,
    synth,
    thd,
    thd_report,
    thd_total_closed_form,
    waveform_dft_spectrum,
)
from shewpt.spectrum import spectrum_to_csv
from shewpt.waveform import interval_mean_samples


def _row_loop_csv(spectrum, path):
    # the per-row csv.writer loop that wrote spectrum.csv before the rows
    # went through one writer
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


def _full_transform_amplitudes(means, n_max):
    # all count // 2 + 1 bins divided by the count, and the hold factor
    # exp(i pi n / N) sinc(n / N) built for the call
    count = len(means)
    bins = np.fft.rfft(means) / count
    n = np.arange(1, n_max + 1)
    hold = np.exp(1j * math.pi * n / count) * np.sinc(n / count)
    amps = np.zeros(n_max + 1)
    amps[1:] = 2.0 * np.abs(bins[1 : n_max + 1] / hold)
    return amps


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

    @pytest.mark.parametrize("count", [2048, 8192, 65536])
    def test_leading_orders_do_not_depend_on_how_many_are_taken(
        self, waveform_3, waveform_4, count
    ):
        # the spectrum CLI writes a DFT to n_max orders and thd_report reads
        # one to the THD band; their shared orders must be the same bits
        for w in (waveform_3, waveform_4):
            full = waveform_dft_spectrum(w, count // 2 - 1, samples_per_period=count)
            for n_max in (1, 2, 21, 99, 500, 999, count // 2 - 2):
                part = waveform_dft_spectrum(w, n_max, samples_per_period=count)
                assert np.array_equal(part.amplitudes, full.amplitudes[: n_max + 1])

    @pytest.mark.parametrize("layers", [1, 3, 4, 15])
    def test_equals_the_full_transform(self, layers):
        # every order's bits as a transform divided whole by the sample count
        # and by a hold factor built on each call gave them
        rng = np.random.default_rng(7000 + layers)
        for count in [2**p for p in range(2, 17)]:
            angles = np.sort(rng.uniform(0.01, 1.56, layers))
            w = synth(AngleSet(tuple(angles)), float(rng.uniform(1.0, 1000.0)), 85e3)
            means = interval_mean_samples(w, count)
            for n_max in sorted({1, min(21, count // 2 - 1), min(999, count // 2 - 1),
                                 count // 2 - 1}):
                got = waveform_dft_spectrum(w, n_max, samples_per_period=count).amplitudes
                assert got.tobytes() == _full_transform_amplitudes(means, n_max).tobytes()

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
        with pytest.raises(UndefinedThdError) as info:
            thd(spec, 9)
        # the CLI maps every ValidationError to exit 2 in one branch
        assert isinstance(info.value, ValidationError)

    def test_monotone_and_convergent(self, waveform_3):
        spec = analytic_spectrum(waveform_3.angle_set, 500.0, 85e3, 999)
        values = [thd(spec, n_max) for n_max in (21, 51, 101, 301, 999)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        closed = thd_total_closed_form(waveform_3.angle_set, 500.0)
        assert closed - values[-1] < 0.002
        assert values[-1] <= closed + 1e-12

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_fewer_than_one_order(self, waveform_3, n_max):
        # thd(spec, -3) took the slice [2:-2], the orders 2..18 of a 21-order
        # spectrum (0.154), and thd(spec, 0) returned 0.0
        spec = waveform_dft_spectrum(waveform_3, 21)
        with pytest.raises(ValidationError, match=rf"^n_max: {n_max} must be >= 1$"):
            thd(spec, n_max)

    @pytest.mark.parametrize("n_max", [2.5, math.nan, math.inf])
    def test_rejects_a_non_integer_order_count(self, waveform_3, n_max):
        # 2.5 and nan passed both range checks and raised TypeError from the
        # slice; inf read as past the coverage
        spec = waveform_dft_spectrum(waveform_3, 21)
        with pytest.raises(ValidationError, match=rf"^n_max: {n_max!r} must be an integer$"):
            thd(spec, n_max)

    def test_an_integral_float_order_count_is_that_integer(self, waveform_3):
        spec = waveform_dft_spectrum(waveform_3, 21)
        assert thd(spec, 21.0) == thd(spec, 21) == thd(spec, np.int64(21))

    def test_rejects_orders_past_the_coverage(self, waveform_3):
        spec = waveform_dft_spectrum(waveform_3, 21)
        with pytest.raises(ValidationError, match="^n_max: 22 beyond spectrum coverage 21$"):
            thd(spec, 22)


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

    @pytest.mark.parametrize("step_voltage", [1e-15, 1e15])
    def test_the_domain_corner_has_a_finite_thd(self, step_voltage):
        # one angle a float below pi/2 at either end of the magnitude domain:
        # cos(theta) = 2.8e-16 and the pulse is 2.2e-16 rad wide, so
        # THD^2 = (2/pi) 2.2e-16 / ((8/pi^2) cos(theta)^2) - 1 = 2.2e15
        aset = AngleSet((float(np.nextafter(math.pi / 2, 0.0)),))
        assert thd_total_closed_form(aset, step_voltage) == pytest.approx(4.6618e7, rel=1e-4)


class TestThdReport:
    def test_report_invariants(self, waveform_3):
        report = thd_report(waveform_3, eliminated_orders=(3, 5, 7))
        assert report.thd_21 <= report.thd_total
        assert report.thd_21 >= 0
        assert report.eliminated_orders_max_relative < 1e-6

    @pytest.mark.parametrize(
        "bad", [1, 2, -3, 3.5, True, math.nan, math.inf, np.float64(math.inf)]
    )
    def test_an_eliminated_order_is_a_target_order(self, waveform_3, bad):
        # one rule, an odd integer >= 3, under each argument's own name; the
        # fundamental reported 1.0 and an even order about 1e-16, and numpy's
        # infinity warned from the remainder in HarmonicTargetSet
        with pytest.raises(ValidationError) as target:
            HarmonicTargetSet((3, bad))
        assert str(target.value) == f"orders[1]: {bad!r} must be an odd integer >= 3"
        with pytest.raises(ValidationError) as eliminated:
            thd_report(waveform_3, eliminated_orders=(3, bad))
        assert str(eliminated.value) == f"eliminated_orders[1]: {bad!r} must be an odd integer >= 3"

    def test_an_integral_float_order_is_that_order(self, waveform_3):
        # as in HarmonicTargetSet: 5.0 names the order 5
        assert thd_report(waveform_3, eliminated_orders=(3.0, np.int64(5), 7.0)) == thd_report(
            waveform_3, eliminated_orders=(3, 5, 7))

    def test_values_are_python_numbers(self, waveform_3, waveform_4):
        # a numpy scalar here would make write_json raise TypeError
        for w, eliminated in ((waveform_3, (3, 5, 7)), (waveform_4, ()), (waveform_4, (3,))):
            report = thd_report(w, eliminated_orders=eliminated)
            for field in dataclasses.fields(report):
                # exact type names: np.float64 subclasses float
                assert type(getattr(report, field.name)).__name__ == field.type

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

    @pytest.mark.parametrize("n_max", [21, 99])
    def test_csv_bytes_equal_the_row_loop(self, waveform_3, tmp_path, n_max):
        spec = waveform_dft_spectrum(waveform_3, n_max)
        _row_loop_csv(spec, tmp_path / "reference.csv")
        spectrum_to_csv(spec, tmp_path / "spec.csv")
        assert (tmp_path / "spec.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()

    def test_csv_without_fundamental_writes_nan(self, tmp_path):
        spec = dft_spectrum(np.zeros(1024), 50.0, 9)
        _row_loop_csv(spec, tmp_path / "reference.csv")
        spectrum_to_csv(spec, tmp_path / "spec.csv")
        data = (tmp_path / "spec.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        assert data.splitlines()[1] == b"1,50.0,0.0,nan"
