import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shewpt import (
    AngleSet,
    ValidationError,
    fundamental_rms,
    harmonic_amplitude,
    synth,
    total_rms,
)
from shewpt.waveform import interval_mean_samples, waveform_to_csv

DEG = math.pi / 180.0


def valid_angle_sets():
    return (
        st.lists(st.floats(0.5, 89.5), min_size=1, max_size=6, unique=True)
        .map(sorted)
        .filter(lambda a: all(b - x > 1e-3 for x, b in zip(a, a[1:])))
        .map(AngleSet.from_degrees)
    )


class TestAngleSet:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError, match="angles"):
            AngleSet.from_degrees([41, 11, 85])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="angles"):
            AngleSet.from_degrees([11, 41, 90])
        with pytest.raises(ValidationError, match="angles"):
            AngleSet((0.0, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AngleSet(())

    def test_degree_round_trip(self):
        aset = AngleSet.from_degrees([11, 41, 85])
        assert aset.to_degrees() == pytest.approx([11, 41, 85])


class TestSynth:
    def test_single_layer_is_square_wave(self):
        w = synth(AngleSet((1e-4,)), 500.0, 50.0)
        assert w.peak == 500.0
        t_quarter = 0.25 * w.period
        assert w.sample_at(t_quarter) == 500.0
        assert w.sample_at(3 * t_quarter) == -500.0

    def test_three_level_staircase(self, waveform_3):
        assert waveform_3.peak == pytest.approx(1500.0)
        t = np.linspace(0, waveform_3.period, 20001)
        values = np.unique(waveform_3.sample_at(t))
        assert set(values) == {-1500.0, -1000.0, -500.0, 0.0, 500.0, 1000.0, 1500.0}

    def test_four_level_staircase(self, waveform_4):
        assert waveform_4.peak == pytest.approx(1500.0)
        t = np.linspace(0, waveform_4.period, 20001)
        assert len(np.unique(waveform_4.sample_at(t))) == 9

    def test_validation_errors_name_field(self):
        aset = AngleSet.from_degrees([11, 41, 85])
        with pytest.raises(ValidationError, match="step_voltage"):
            synth(aset, -1.0, 50.0)
        with pytest.raises(ValidationError, match="fundamental_frequency"):
            synth(aset, 500.0, 0.0)


class TestSample:
    def test_zero_at_origin(self, waveform_3):
        assert waveform_3.sample_at(0.0) == 0.0

    def test_all_layers_on_at_quarter(self, waveform_3):
        t = 0.25 * waveform_3.period
        assert waveform_3.sample_at(t) == pytest.approx(1500.0)

    def test_quarter_wave_mirror(self, waveform_3):
        omega = 2 * math.pi / waveform_3.period
        t30 = (30 * DEG) / omega
        t_mirror = (math.pi - 30 * DEG) / omega
        assert waveform_3.sample_at(t30) == waveform_3.sample_at(t_mirror)

    def test_rejects_non_finite_time(self, waveform_3):
        with pytest.raises(ValidationError, match="t"):
            waveform_3.sample_at(math.nan)

    @given(aset=valid_angle_sets(), phase=st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_half_wave_antisymmetry(self, aset, phase):
        w = synth(aset, 100.0, 1.0)
        half = 0.5 * w.period
        t = phase / (2 * math.pi) * w.period
        assert w.sample_at(t + half) == pytest.approx(-w.sample_at(t), abs=1e-9)

    @given(aset=valid_angle_sets(), phase=st.floats(1e-6, math.pi - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_quarter_wave_symmetry(self, aset, phase):
        w = synth(aset, 100.0, 1.0)
        t = phase / (2 * math.pi) * w.period
        t_mirror = (math.pi - phase) / (2 * math.pi) * w.period
        assert w.sample_at(t_mirror) == pytest.approx(w.sample_at(t), abs=1e-9)


class TestHarmonicAmplitude:
    def test_even_orders_vanish(self, solution_3):
        for n in (2, 4, 10, 100):
            assert harmonic_amplitude(solution_3.angle_set, 500.0, n) == 0.0

    def test_eliminated_order_at_solved_angles(self, solution_3):
        b3 = harmonic_amplitude(solution_3.angle_set, 500.0, 3)
        b1 = harmonic_amplitude(solution_3.angle_set, 500.0, 1)
        assert abs(b3) < 1e-9 * b1

    def test_printed_rounded_angles_fundamental(self):
        # direct evaluation of the b_1 formula at the printed (rounded) angles
        aset = AngleSet.from_degrees([11, 41, 85])
        expected = 4 * 500.0 / math.pi * sum(
            math.cos(a * DEG) for a in (11, 41, 85)
        )
        b1 = harmonic_amplitude(aset, 500.0, 1)
        assert b1 == pytest.approx(expected, rel=1e-12)
        assert b1 == pytest.approx(1160.88, abs=0.01)
        assert b1 / math.sqrt(2) == pytest.approx(820.87, abs=0.01)

    def test_rejects_bad_order(self, solution_3):
        with pytest.raises(ValidationError, match="n"):
            harmonic_amplitude(solution_3.angle_set, 500.0, 0)

    def test_positive_fundamental(self):
        for degs in ([5, 30, 80], [1, 2, 3], [44, 45, 46, 47]):
            assert harmonic_amplitude(AngleSet.from_degrees(degs), 10.0, 1) > 0


class TestFundamentalRms:
    def test_three_level_reference(self, solution_3):
        assert fundamental_rms(solution_3.angle_set, 500.0) == pytest.approx(
            809.19, abs=1.0
        )

    def test_four_level_reference(self, solution_4):
        assert fundamental_rms(solution_4.angle_set, 375.0) == pytest.approx(
            869.7, abs=1.5
        )

    def test_square_wave_limit(self):
        aset = AngleSet((1e-9,))
        assert fundamental_rms(aset, 500.0) == pytest.approx(
            4 * 500.0 / (math.pi * math.sqrt(2)), rel=1e-6
        )


class TestTotalRms:
    def test_square_wave(self):
        assert total_rms(AngleSet((1e-9,)), 500.0) == pytest.approx(500.0, rel=1e-6)

    def test_three_level_value(self, solution_3):
        assert total_rms(solution_3.angle_set, 500.0) == pytest.approx(823.02, abs=0.01)

    def test_parseval_consistency(self, solution_3):
        # the 1/n amplitude decay needs ~1e6 odd terms for 1e-6 accuracy
        v_sq = total_rms(solution_3.angle_set, 500.0) ** 2
        n = np.arange(1, 2_000_000, 2, dtype=float)
        coeff_sums = np.cos(n[:, None] * solution_3.angle_set.as_array()[None, :]).sum(
            axis=1
        )
        series = np.sum((4 * 500.0 / (math.pi * n) * coeff_sums) ** 2) / 2
        assert abs(v_sq - series) / v_sq < 1e-6

    def test_dominates_fundamental(self, solution_3, solution_4):
        for sol, step in ((solution_3, 500.0), (solution_4, 375.0)):
            assert total_rms(sol.angle_set, step) >= fundamental_rms(sol.angle_set, step)


class TestIntegralOracles:
    def test_sine_weighted_integration_recovers_harmonics(self, waveform_3):
        # area-exact samples against the closed-form Fourier coefficients
        count = 2**16
        means = interval_mean_samples(waveform_3, count)
        edges = np.linspace(0, 2 * math.pi, count + 1)
        for n in (1, 11, 13):
            sine_int = (np.cos(n * edges[:-1]) - np.cos(n * edges[1:])) / n
            estimate = np.sum(means * sine_int) / math.pi
            exact = harmonic_amplitude(waveform_3.angle_set, 500.0, n)
            assert abs(estimate - exact) / abs(exact) < 1e-6

    def test_interval_means_preserve_mean(self, waveform_3):
        means = interval_mean_samples(waveform_3, 4096)
        assert abs(np.mean(means)) < 1e-9


class TestScaling:
    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_step_voltage_scales_everything(self, scale, solution_3):
        aset = solution_3.angle_set
        for n in (1, 11, 17):
            assert harmonic_amplitude(aset, 500.0 * scale, n) == pytest.approx(
                scale * harmonic_amplitude(aset, 500.0, n), rel=1e-12
            )
        assert total_rms(aset, 500.0 * scale) == pytest.approx(
            scale * total_rms(aset, 500.0), rel=1e-12
        )


class TestCsvExport:
    def test_format_and_determinism(self, waveform_3, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        waveform_to_csv(waveform_3, path_a, samples=1024)
        waveform_to_csv(waveform_3, path_b, samples=1024)
        lines = path_a.read_text().splitlines()
        assert lines[0] == "t_s,v_V"
        assert len(lines) == 1025
        assert path_a.read_bytes() == path_b.read_bytes()
