import csv
import math
import tracemalloc
import warnings

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
from shewpt import waveform
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

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_rejects_a_non_finite_order(self, solution_3, n):
        # int(n) raised ValueError for nan and OverflowError for inf
        with pytest.raises(ValidationError, match=r"^n: .* must be a positive integer$"):
            harmonic_amplitude(solution_3.angle_set, 500.0, n)

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

    def test_interval_means_reject_fewer_than_two(self, waveform_3):
        with pytest.raises(ValidationError, match="^count: 1 must be >= 2$"):
            interval_mean_samples(waveform_3, 1)


def _six_quarter_angle_integral(w, phase):
    # the angle integral as written before it shared sample_at's half-wave
    # fold: a floor-based wrap and six quarter-wave evaluations, two of
    # them constants over full arrays
    phase = np.asarray(phase, dtype=float)
    theta = w.angle_set.as_array()

    def quarter(y):
        return np.maximum(0.0, y[..., None] - theta).sum(axis=-1)

    def half(y):
        q_top = quarter(np.full_like(y, math.pi / 2))
        lo = quarter(np.minimum(y, math.pi / 2))
        hi = q_top - quarter(np.minimum(math.pi - y, math.pi / 2))
        return lo + np.where(y > math.pi / 2, hi, 0.0)

    wraps = np.floor(phase / (2 * math.pi))
    rem = phase - wraps * 2 * math.pi
    in_second = rem > math.pi
    rem_half = np.where(in_second, rem - math.pi, rem)
    h = half(rem_half)
    h_full = half(np.full_like(rem_half, math.pi))
    return w.step_voltage * np.where(in_second, h_full - h, h)


def _random_waveform(rng, layers):
    while True:
        angles = np.sort(rng.uniform(0.0, math.pi / 2, layers))
        if angles[0] > 0 and np.all(np.diff(angles) > 0):
            return synth(AngleSet(tuple(angles)), float(rng.uniform(1.0, 1000.0)), 85e3)


class TestAngleIntegral:
    GRID_SIZES = [2, 3, 5, 7, 100, 1000, 4097, 12345] + [2**p for p in range(2, 17)]

    @pytest.mark.parametrize("layers", range(1, 16))
    def test_equals_the_six_quarter_integral_on_period_grids(self, layers):
        rng = np.random.default_rng(1000 + layers)
        w = _random_waveform(rng, layers)
        for n in self.GRID_SIZES:
            edges = np.linspace(0.0, 2 * math.pi, n + 1)
            assert np.array_equal(
                w.angle_integral(edges), _six_quarter_angle_integral(w, edges)
            ), n

    def test_equals_the_six_quarter_integral_on_random_phases(self, waveform_3):
        rng = np.random.default_rng(7)
        waveforms = [waveform_3] + [_random_waveform(rng, k) for k in (1, 2, 5, 11, 15)]
        phase = rng.uniform(-20.0, 20.0, 20_000)
        for w in waveforms:
            assert np.array_equal(w.angle_integral(phase), _six_quarter_angle_integral(w, phase))

    @pytest.mark.parametrize("layers", [1, 3, 4, 15])
    def test_equals_the_six_quarter_integral_at_the_block_edges(self, layers):
        # the (points, layers) terms are reduced a block of rows at a time
        rng = np.random.default_rng(2000 + layers)
        w = _random_waveform(rng, layers)
        rows = waveform.INTEGRAL_BLOCK // layers
        for n in (rows - 1, rows, rows + 1):
            phase = rng.uniform(-20.0, 20.0, n)
            assert np.array_equal(w.angle_integral(phase), _six_quarter_angle_integral(w, phase)), n
        phase = rng.uniform(-20.0, 20.0, (rows + 1, 3))
        got = w.angle_integral(phase)
        assert got.shape == phase.shape
        assert np.array_equal(got, _six_quarter_angle_integral(w, phase))

    def test_interval_means_take_a_bounded_working_set(self):
        # one whole (65,537, 15) pass traced 16.6 MiB
        w = _random_waveform(np.random.default_rng(3), 15)
        interval_mean_samples(w, 65536)
        tracemalloc.start()
        try:
            interval_mean_samples(w, 65536)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_equals_the_six_quarter_integral_at_multiples_of_half_pi(self, waveform_3):
        phase = np.arange(-16, 17) * (math.pi / 2)
        assert np.array_equal(
            waveform_3.angle_integral(phase), _six_quarter_angle_integral(waveform_3, phase)
        )
        for p in phase:
            value = waveform_3.angle_integral(float(p))
            assert type(value) is float
            assert value == float(_six_quarter_angle_integral(waveform_3, p))


def _mod_fold(phase):
    # the half-wave fold as np.mod writes it: wrap into [0, 2 pi), then
    # split the half period and mirror about pi/2
    phase = np.mod(np.asarray(phase, dtype=float), 2 * math.pi)
    first = phase < math.pi
    half = np.where(first, phase, phase - math.pi)
    return first, half, np.minimum(half, math.pi - half)


def _fold_warnings(fold, phase):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fold(phase)
    return out, [(w.category, str(w.message)) for w in caught]


def _assert_folds_like_mod(phase):
    # values, sign bits (NaN payloads too), shapes, dtypes and warnings
    got, got_warnings = _fold_warnings(waveform._fold, phase)
    want, want_warnings = _fold_warnings(_mod_fold, phase)
    assert got_warnings == want_warnings
    for g, w in zip(got, want):
        assert (g.shape, g.dtype) == (w.shape, w.dtype)
        assert g.tobytes() == w.tobytes()


TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi


class TestFold:
    def test_empty_and_zero_d(self):
        _assert_folds_like_mod(np.array([]))
        _assert_folds_like_mod(np.empty((0, 3)))
        for x in (0.0, -0.0, 1.0, 7.0, -1.0, 20.0, math.nan, math.inf):
            _assert_folds_like_mod(x)
            _assert_folds_like_mod(np.float64(x))

    def test_edge_values(self):
        tiny = np.nextafter(0.0, 1.0)
        specials = [
            0.0, -0.0, tiny, math.pi, np.nextafter(TWO_PI, 0.0), TWO_PI,
            np.nextafter(TWO_PI, 8.0), 3 * math.pi, np.nextafter(FOUR_PI, 0.0),
            FOUR_PI, np.nextafter(FOUR_PI, 8.0), -tiny, -1e-300, -1e-17, -1.0,
            -TWO_PI, 1e300,
        ]
        for x in specials:
            _assert_folds_like_mod(np.array([x]))
            _assert_folds_like_mod(np.array([1.0, x, 2.0]))
        _assert_folds_like_mod(np.array(specials))
        # -0.0 and values just under 2 pi in an all-in-range array; the fold
        # of -0.0 is +0.0, as np.mod gives
        _assert_folds_like_mod(np.array([-0.0, 0.0, np.nextafter(TWO_PI, 0.0)]))
        assert not np.signbit(waveform._fold(np.array([-0.0]))[1][0])

    @pytest.mark.parametrize("n", [2, 3, 7, 512, 4096, 8192, 65536])
    def test_period_grids(self, n):
        grid = TWO_PI / n
        _assert_folds_like_mod(np.linspace(0.0, TWO_PI, n + 1))
        _assert_folds_like_mod((np.arange(n) + 0.5) * grid)  # drive midpoints
        _assert_folds_like_mod(np.arange(2 * n + 1) * grid)  # two periods

    def test_random_phases(self):
        rng = np.random.default_rng(13)
        for lo, hi in ((0.0, FOUR_PI), (0.0, TWO_PI), (TWO_PI, FOUR_PI), (-20.0, 20.0),
                       (-1e-12, 1.0), (FOUR_PI - 1e-12, FOUR_PI + 1.0)):
            _assert_folds_like_mod(rng.uniform(lo, hi, 10_000))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        _assert_folds_like_mod(np.array([bad]))
        _assert_folds_like_mod(np.array([0.5, bad, 7.0]))
        _assert_folds_like_mod(np.array([math.nan, math.inf, -math.inf, 1.0]))

    def test_empty_time_and_phase_arrays(self, waveform_3):
        for out in (waveform_3.sample_at(np.array([])), waveform_3.angle_integral(np.array([]))):
            assert isinstance(out, np.ndarray)
            assert (out.shape, out.dtype) == ((0,), np.float64)


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

    # 63, 64 and 65 straddle one writer chunk of 64 rows
    @pytest.mark.parametrize("samples", [63, 64, 65, 1024, 8192, 65536])
    def test_bytes_equal_the_row_loop(self, waveform_3, tmp_path, samples):
        # the per-row csv.writer loop that wrote this file before the rows
        # went through one writer
        t = np.arange(samples) * (waveform_3.period / samples)
        v = waveform_3.sample_at(t)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "v_V"])
            for ti, vi in zip(t, v):
                writer.writerow([repr(float(ti)), repr(float(vi))])
        path = tmp_path / "waveform.csv"
        waveform_to_csv(waveform_3, path, samples=samples)
        assert path.read_bytes() == reference.read_bytes()
