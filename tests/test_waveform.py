import csv
import math
import tracemalloc
from fractions import Fraction

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
        with pytest.raises(ValidationError, match="^f1: "):
            synth(aset, 500.0, 0.0)
        with pytest.raises(ValidationError, match="fundamental_frequency"):
            waveform.SteppedWaveform(aset, 500.0, 0.0)


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

    def test_right_continuous_at_every_edge(self, solution_3, solution_4):
        # at f1 = 1 Hz a time is its place in the period, so every edge
        # position u, 1/2 - u, 1/2 + u, 1 - u is a time; v there is the level
        # after the edge, as the interval means and the drive read it
        rng = np.random.default_rng(5)
        angle_sets = [solution_3.angle_set, solution_4.angle_set, AngleSet.from_degrees([45.0]),
                      _random_waveform(rng, 15).angle_set]
        for aset in angle_sets:
            w = synth(aset, 500.0, 1.0)
            u = aset.as_array() / (2 * math.pi)
            on = np.arange(1.0, aset.levels + 1)  # layers on after layer i's rising edge
            edges = np.concatenate([u, 0.5 - u, 0.5 + u, 1.0 - u])
            after = 500.0 * np.concatenate([on, on - 1, -on, 1 - on])
            assert np.array_equal(w.sample_at(edges), after)
            assert [w.sample_at(float(e)) for e in edges] == list(after)

    def test_a_zero_level_is_positive_zero(self, waveform_3):
        # the zero level of the negative half period as well
        t = np.linspace(-waveform_3.period, 2 * waveform_3.period, 30001)
        v = waveform_3.sample_at(t)
        zero = v == 0.0
        assert np.count_nonzero(zero[(t % waveform_3.period) > 0.5 * waveform_3.period]) > 100
        assert not np.signbit(v[zero]).any()
        assert not np.signbit(waveform_3.sample_at(0.51 * waveform_3.period))

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

    @pytest.mark.parametrize("layers, count", [(3, 8192), (15, 65536)])
    @pytest.mark.parametrize("seed", range(5))
    def test_interval_means_equal_the_rational_means(self, layers, count, seed):
        # every interval that holds or borders an edge, against the exact
        # rational means of the float angles; rounding the edge positions
        # alone sets a floor of about count * V * 2**-53
        w = _random_waveform(np.random.default_rng(4000 + 10 * layers + seed), layers)
        got = interval_mean_samples(w, count)
        want = _rational_interval_means(w, count)
        bound = count * w.step_voltage * 2.0**-51
        err = max(abs(Fraction(float(got[j])) - m) for j, m in want.items())
        assert err <= bound, float(err / bound)


def _bincount_interval_means(theta, count):
    # the interval means as two count-long bincounts and a cumsum wrote
    # them: each interval's level at its start, plus each of its edges' jump
    # times the part of the interval after the edge
    u = theta / (2 * math.pi)
    pos = np.concatenate(([0.0], u, 0.5 - u[::-1], 0.5 + u, 1.0 - u[::-1])) * count
    jump = np.concatenate(([0.0], np.repeat([1.0, -1.0, -1.0, 1.0], u.size)))
    k = pos.astype(np.intp)
    start = np.cumsum(np.bincount(k + 1, jump, minlength=count)[:count])
    inside = np.bincount(k, jump * (k + 1 - pos), minlength=count)[:count]
    return start + inside


def _all_orders_amplitudes(theta, step_voltage, orders):
    # b_n with a cosine sum for every order, the even ones then set to 0.0
    n = np.asarray(orders)
    amps = 4.0 * step_voltage / (n * math.pi) * np.cos(n[:, None] * theta).sum(axis=1)
    return np.where(n % 2 == 0, 0.0, amps)


BIT_COUNTS = [2, 3, 5, 100] + [2**p for p in range(1, 17)]


class TestStaircaseBits:
    @pytest.mark.parametrize("layers", range(1, 16))
    def test_interval_means_equal_the_bincount_means(self, layers):
        rng = np.random.default_rng(5000 + layers)
        for count in BIT_COUNTS:
            theta = _random_waveform(rng, layers).angle_set.as_array()
            got = waveform._interval_means(theta, count)
            assert got.tobytes() == _bincount_interval_means(theta, count).tobytes(), count

    @pytest.mark.parametrize(
        "theta",
        [
            [0.0],  # the square drive: its last edge is at the period's end
            [22.5 * DEG],  # on an interval boundary from 16 intervals on
            [22.5 * DEG, 45.0 * DEG, 67.5 * DEG],
            [1e-300, 1.0],  # 1 - u rounds to 1: an edge at the period's end
        ],
        ids=["square", "22.5", "boundaries", "tiny"],
    )
    def test_interval_means_with_edges_on_boundaries(self, theta):
        theta = np.array(theta)
        for count in BIT_COUNTS:
            got = waveform._interval_means(theta, count)
            assert got.tobytes() == _bincount_interval_means(theta, count).tobytes(), count

    @pytest.mark.parametrize("layers", range(1, 16))
    def test_amplitudes_equal_the_all_orders_formula(self, layers):
        w = _random_waveform(np.random.default_rng(6000 + layers), layers)
        theta, volts = w.angle_set.as_array(), w.step_voltage
        for orders in (np.arange(1, 1000), [1], [2], [7], [np.float64(9.0), 4, 11]):
            got = waveform._harmonic_amplitudes(theta, volts, orders)
            assert got.tobytes() == _all_orders_amplitudes(theta, volts, orders).tobytes()


def _rational_edges(w):
    # (angle, jump) of the staircase's switching edges over one period, in
    # exact rationals of the float angles and of math.pi
    pi = Fraction(math.pi)
    edges = []
    for t in map(Fraction, w.angle_set.angles):
        edges += [(t, 1), (pi - t, -1), (pi + t, -1), (2 * pi - t, 1)]
    return edges


def _rational_interval_means(w, count):
    # {j: mean of v over [j, j + 1) * 2 pi / count} for each interval that
    # holds or borders an edge
    scale = count / (2 * Fraction(math.pi))
    edges = [(a * scale, jump) for a, jump in _rational_edges(w)]
    intervals = {j for u, _ in edges for j in range(math.floor(u) - 1, math.floor(u) + 2)}
    return {
        j: Fraction(w.step_voltage) * sum(jump * min(1, max(0, j + 1 - u)) for u, jump in edges)
        for j in sorted(intervals)
        if 0 <= j < count
    }


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


def _rational_angle_integral(w, phases):
    # the exact integral from 0 to each phase, wrapped into [0, 2 pi) in
    # rationals of the float phase and of math.pi
    two_pi = 2 * Fraction(math.pi)
    edges = _rational_edges(w)
    return [
        Fraction(w.step_voltage) * sum(jump * max(0, Fraction(float(p)) % two_pi - a) for a, jump in edges)
        for p in phases
    ]


def _assert_integral_agrees(w, phase, picks=16):
    # within 16 K V 2**-52 of the six-quarter float integral on every phase
    # and of the rational integral on ``picks`` phases spread over the array
    tol = 16 * w.angle_set.levels * w.step_voltage * 2.0**-52
    got = w.angle_integral(phase)
    assert got.shape == np.shape(phase)
    np.testing.assert_allclose(got, _six_quarter_angle_integral(w, phase), rtol=0, atol=tol)
    at = np.linspace(0, got.size - 1, min(picks, got.size)).astype(int)
    want = _rational_angle_integral(w, np.ravel(phase)[at])
    for g, r in zip(np.ravel(got)[at], want):
        assert abs(Fraction(float(g)) - r) <= tol


class TestAngleIntegral:
    GRID_SIZES = [2, 3, 5, 7, 100, 1000, 4097, 12345] + [2**p for p in range(2, 17)]

    @pytest.mark.parametrize("layers", range(1, 16))
    def test_equals_the_six_quarter_integral_on_period_grids(self, layers):
        rng = np.random.default_rng(1000 + layers)
        w = _random_waveform(rng, layers)
        for n in self.GRID_SIZES:
            _assert_integral_agrees(w, np.linspace(0.0, 2 * math.pi, n + 1))

    def test_equals_the_six_quarter_integral_on_random_phases(self, waveform_3):
        rng = np.random.default_rng(7)
        waveforms = [waveform_3] + [_random_waveform(rng, k) for k in (1, 2, 5, 11, 15)]
        phase = rng.uniform(-20.0, 20.0, 20_000)
        for w in waveforms:
            _assert_integral_agrees(w, phase, picks=64)

    @pytest.mark.parametrize("layers", [1, 3, 4, 15])
    def test_equals_the_six_quarter_integral_at_the_block_edges(self, layers):
        # array sizes about 2**16 elements of (points, layers), where the
        # integral was once reduced a block of rows at a time; and a 2-d phase
        rng = np.random.default_rng(2000 + layers)
        w = _random_waveform(rng, layers)
        rows = 2**16 // layers
        for n in (rows - 1, rows, rows + 1):
            _assert_integral_agrees(w, rng.uniform(-20.0, 20.0, n))
        _assert_integral_agrees(w, rng.uniform(-20.0, 20.0, (rows + 1, 3)))

    def test_interval_means_take_a_bounded_working_set(self):
        # a whole (65,537, 15) pass of the per-layer ramp sums traced 16.6 MiB
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
        _assert_integral_agrees(waveform_3, phase, picks=phase.size)
        for p in phase:
            value = waveform_3.angle_integral(float(p))
            assert type(value) is float
            assert value == float(waveform_3.angle_integral(np.array([p]))[0])


def _mod_fold(phase):
    # the half-wave fold as np.mod writes it: wrap into [0, 2 pi), then
    # split the half period and mirror about pi/2
    phase = np.mod(np.asarray(phase, dtype=float), 2 * math.pi)
    first = phase < math.pi
    half = np.where(first, phase, phase - math.pi)
    return first, half, np.minimum(half, math.pi - half)


TWO_PI = 2 * math.pi
FOUR_PI = 4 * math.pi
# how close to an edge, in ulps of 2 pi, a phase may lie and be left out of
# the comparison with the fold: there the two roundings may fall either side
EDGE_ULPS = 16


def _fold_levels(w, phase):
    # v at each phase by the half-wave fold, the sign of the half period
    # times the layers on at the folded angle; and which phases lie more
    # than EDGE_ULPS ulps of 2 pi from every edge
    first, _, fold = _mod_fold(phase)
    theta = w.angle_set.as_array()
    count = np.sum(theta <= fold[..., None], axis=-1)
    level = np.where(first, 1.0, -1.0) * count
    gap = np.min(np.abs(fold[..., None] - theta), axis=-1)
    return w.step_voltage * level, gap > EDGE_ULPS * np.spacing(TWO_PI)


def _fold_waveforms():
    # period 2 pi, so a time is its phase: the printed 3-level angles, a
    # layer at 45 degrees whose edges fall on the period grids, and 15
    # random layers
    f1 = 1 / TWO_PI
    rng = np.random.default_rng(11)
    angle_sets = [
        AngleSet.from_degrees([11.9, 41.9, 85.7]),
        AngleSet.from_degrees([45.0]),
        _random_waveform(rng, 15).angle_set,
    ]
    return [synth(aset, 500.0, f1) for aset in angle_sets]


FOLD_WAVES = _fold_waveforms()


def _assert_samples_fold(t, excluded=0):
    # sample_at on every FOLD_WAVES waveform equals the fold's value at each
    # time clear of an edge, in shape and dtype too, and a 0-d time gives a
    # float; at most ``excluded`` times per waveform are left out
    for w in FOLD_WAVES:
        assert w.period == TWO_PI
        got = w.sample_at(t)
        want, clear = _fold_levels(w, t)
        if np.ndim(t) == 0:
            assert type(got) is float
        else:
            assert (got.shape, got.dtype) == (np.shape(t), np.float64)
        assert np.count_nonzero(~clear) <= excluded
        assert np.array_equal(np.asarray(got)[clear], np.asarray(want)[clear])


class TestFold:
    """sample_at wraps any finite time into the period: it agrees with the
    half-wave fold of the phase everywhere but within a few ulps of an edge."""

    def test_empty_and_zero_d(self):
        _assert_samples_fold(np.array([]))
        _assert_samples_fold(np.empty((0, 3)))
        for x in (0.0, -0.0, 1.0, 7.0, -1.0, 20.0):
            _assert_samples_fold(x)
            _assert_samples_fold(np.float64(x))
            _assert_samples_fold(np.array(x))

    def test_edge_values(self):
        tiny = np.nextafter(0.0, 1.0)
        specials = [
            0.0, -0.0, tiny, math.pi, np.nextafter(TWO_PI, 0.0), TWO_PI,
            np.nextafter(TWO_PI, 8.0), 3 * math.pi, np.nextafter(FOUR_PI, 0.0),
            FOUR_PI, np.nextafter(FOUR_PI, 8.0), -tiny, -1e-300, -1e-17, -1.0,
            -TWO_PI, 1e300,
        ]
        for x in specials:
            _assert_samples_fold(np.array([x]))
            _assert_samples_fold(np.array([1.0, x, 2.0]))
        _assert_samples_fold(np.array(specials))
        _assert_samples_fold(np.array([-0.0, 0.0, np.nextafter(TWO_PI, 0.0)]))

    @pytest.mark.parametrize("n", [2, 3, 7, 512, 4096, 8192, 65536])
    def test_period_grids(self, n):
        # only the 45-degree layer's four edges lie on a grid, once a period
        grid = TWO_PI / n
        _assert_samples_fold(np.linspace(0.0, TWO_PI, n + 1), excluded=4)
        _assert_samples_fold((np.arange(n) + 0.5) * grid)  # step midpoints
        _assert_samples_fold(np.arange(2 * n + 1) * grid, excluded=8)  # two periods

    def test_random_phases(self):
        rng = np.random.default_rng(13)
        for lo, hi in ((0.0, FOUR_PI), (0.0, TWO_PI), (TWO_PI, FOUR_PI), (-20.0, 20.0),
                       (-1e-12, 1.0), (FOUR_PI - 1e-12, FOUR_PI + 1.0)):
            _assert_samples_fold(rng.uniform(lo, hi, 10_000))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        for t in (bad, np.array([bad]), np.array([0.5, bad, 7.0]),
                  np.array([math.nan, math.inf, -math.inf, 1.0])):
            for w in FOLD_WAVES:
                with pytest.raises(ValidationError, match="^t: "):
                    w.sample_at(t)

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
