"""Bad arguments to the public functions: each raises ValidationError naming
the argument, with warnings raised as errors, instead of a silent answer or a
TypeError or ValueError from deep inside numpy."""

import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import shewpt
from shewpt import (
    AngleSet,
    HarmonicSpectrum,
    HarmonicTargetSet,
    SquareDrive,
    SteppedWaveform,
    ValidationError,
    WptLinkParams,
    analytic_spectrum,
    dft_spectrum,
    energy_balance_residual,
    fha_solve,
    fundamental_rms,
    grid_oracle,
    harmonic_amplitude,
    jacobian,
    power_scaling_check,
    residual,
    simulate,
    solve_multistart,
    solve_newton,
    steady_state_metrics,
    synth,
    thd,
    thd_report,
    thd_total_closed_form,
    total_rms,
    waveform_dft_spectrum,
)
from shewpt.reporting import spectrum_svg, waveform_svg, write_json, write_meta_sidecar
from shewpt.spectrum import spectrum_to_csv
from shewpt.waveform import interval_mean_samples, waveform_to_csv

pytestmark = pytest.mark.filterwarnings("error")

ANGLES = AngleSet.from_degrees([11.0, 41.0, 85.0])
WAVE = synth(ANGLES, 500.0, 85e3)
TARGETS = HarmonicTargetSet((3, 5, 7))
SPEC = analytic_spectrum(ANGLES, 500.0, 85e3, 21)
LINK = WptLinkParams(
    L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3, R_load_dc=50.0, V_dc=100.0, f_s=85e3)
DRIVE = SquareDrive(100.0, 85e3)
RAGGED = [[1.0, 2.0], [3.0]]
# finite as a long double, inf as a float64
HUGE = np.array([np.longdouble("1e400")])

# (id, the argument the message names, the call)
BAD_CALLS = [
    # wrote 3 data rows
    ("csv-samples-2.5", "samples", lambda p: waveform_to_csv(WAVE, p, samples=2.5)),
    ("csv-samples-nan", "samples", lambda p: waveform_to_csv(WAVE, p, samples=math.nan)),
    # TypeError from linspace or from the power-of-two test
    ("means-count-2.5", "count", lambda p: interval_mean_samples(WAVE, 2.5)),
    ("wdft-n_max-2.5", "n_max", lambda p: waveform_dft_spectrum(WAVE, 2.5)),
    ("wdft-samples-2.5", "samples", lambda p: waveform_dft_spectrum(WAVE, 21, 2.5)),
    ("wdft-samples-8192.0", "samples", lambda p: waveform_dft_spectrum(WAVE, 21, 8192.0)),
    # accepted, read as 0.1 rad
    ("angles-str", "angles", lambda p: AngleSet(("0.1",))),
    ("angles-str-second", "angles", lambda p: AngleSet((0.1, "0.2"))),
    # TypeError from the comparison with 3
    ("orders-str", "orders", lambda p: HarmonicTargetSet(("3",))),
    ("orders-none", "orders", lambda p: HarmonicTargetSet((3, None))),
    # a NaN spectrum
    ("dft-nan", "samples", lambda p: dft_spectrum(np.full(64, math.nan), 50.0, 9)),
    ("dft-inf", "samples", lambda p: dft_spectrum(np.append(np.zeros(63), math.inf), 50.0, 9)),
    # ValueError from the amplitude assignment
    ("dft-2d", "samples", lambda p: dft_spectrum(np.zeros((64, 2)), 50.0, 9)),
    ("dft-n_max-2.5", "n_max", lambda p: dft_spectrum(np.zeros(64), 50.0, 2.5)),
    # returned a spectrum with no orders, or raised from np.zeros
    ("analytic-n_max-0", "n_max", lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, 0)),
    ("analytic-n_max--1", "n_max", lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, -1)),
    ("analytic-n_max-2.5", "n_max", lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, 2.5)),
    # IndexError from the amplitude array
    ("amplitude-n-2.5", "n", lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, 21).amplitude(2.5)),
    ("thd_report-order-3.5", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=(3.5,))),
    # TypeError from the order's range test
    ("harmonic-n-str", "n", lambda p: harmonic_amplitude(ANGLES, 500.0, "3")),
    # a negative, infinite or NaN answer
    ("fund_rms-step--1", "step_voltage", lambda p: fundamental_rms(ANGLES, -1.0)),
    ("total_rms-step-inf", "step_voltage", lambda p: total_rms(ANGLES, math.inf)),
    ("harmonic-step-nan", "step_voltage", lambda p: harmonic_amplitude(ANGLES, math.nan, 3)),
    ("thd_closed-step--1", "step_voltage", lambda p: thd_total_closed_form(ANGLES, -1.0)),
    ("analytic-step-nan", "step_voltage", lambda p: analytic_spectrum(ANGLES, math.nan, 85e3, 21)),
    ("analytic-f1--1", "f1", lambda p: analytic_spectrum(ANGLES, 500.0, -1.0, 21)),
    ("dft-f1-nan", "f1", lambda p: dft_spectrum(np.zeros(64), math.nan, 9)),
    # TypeError from math.isfinite
    ("square-amplitude-str", "amplitude", lambda p: SquareDrive("1", 85e3)),
    ("square-frequency-str", "frequency", lambda p: SquareDrive(1.0, "85e3")),
    ("synth-step-str", "step_voltage", lambda p: synth(ANGLES, "1", 85e3)),
    ("link-L1-str", "L1", lambda p: WptLinkParams(
        L1="245e-6", L2=245e-6, C1=14e-9, C2=14e-9, k=0.3, R_load_dc=50.0, V_dc=100.0, f_s=85e3)),
    # TypeError from the range test of k, from the 0.05 guard, from math.radians
    ("link-k-str", "k", lambda p: WptLinkParams(
        L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k="0.3", R_load_dc=50.0, V_dc=100.0, f_s=85e3)),
    ("oracle-step-str", "step_deg", lambda p: grid_oracle(TARGETS, "1")),
    ("from_degrees-str", "angles", lambda p: AngleSet.from_degrees("abc")),
    ("from_degrees-none", "angles", lambda p: AngleSet.from_degrees([1.0, None])),
    # TypeError: a bare number was iterated
    ("from_degrees-number", "angles", lambda p: AngleSet.from_degrees(5)),
    # a sample of a parsed string, a ComplexWarning
    ("sample_at-str", "t", lambda p: WAVE.sample_at("1")),
    ("sample_at-complex", "t", lambda p: WAVE.sample_at(1j)),
    # nan, a RuntimeWarning from np.mod, an integral of a parsed string
    ("angle_integral-nan", "phase", lambda p: WAVE.angle_integral(math.nan)),
    ("angle_integral-inf", "phase", lambda p: WAVE.angle_integral(np.array([0.5, math.inf]))),
    ("angle_integral-str", "phase", lambda p: WAVE.angle_integral("1")),
    # a bool is neither a count nor a magnitude: 0.0, a 1 degree lattice, one
    # iteration, an accepted field, or a TypeError from a boolean index
    ("thd-n_max-true", "n_max", lambda p: thd(SPEC, True)),
    ("oracle-step-true", "step_deg", lambda p: grid_oracle(TARGETS, True)),
    ("wave-step-true", "step_voltage", lambda p: SteppedWaveform(ANGLES, True, 50.0)),
    ("square-amplitude-false", "amplitude", lambda p: SquareDrive(amplitude=False, frequency=85e3)),
    ("link-k-false", "k", lambda p: WptLinkParams(
        L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=False, R_load_dc=50.0, V_dc=100.0, f_s=85e3)),
    ("amplitude-n-true", "n", lambda p: SPEC.amplitude(True)),
    ("thd_report-order-true", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=(True,))),
    # TypeError: a bare value was iterated
    ("angles-number", "angles", lambda p: AngleSet(0.5)),
    ("orders-number", "orders", lambda p: HarmonicTargetSet(3)),
    # TypeError from the band's Nyquist test, or an error naming samples or
    # n_max, which the caller never passed
    ("thd_report-samples-str", "samples_per_period",
     lambda p: thd_report(WAVE, samples_per_period="8192")),
    ("thd_report-samples-none", "samples_per_period",
     lambda p: thd_report(WAVE, samples_per_period=None)),
    ("thd_report-samples-8192.0", "samples_per_period",
     lambda p: thd_report(WAVE, samples_per_period=8192.0)),
    ("thd_report-band-str", "band_total", lambda p: thd_report(WAVE, band_total="5")),
    ("thd_report-band-none", "band_total", lambda p: thd_report(WAVE, band_total=None)),
    ("thd_report-band-0", "band_total", lambda p: thd_report(WAVE, band_total=0)),
    ("thd_report-band-2.5", "band_total", lambda p: thd_report(WAVE, band_total=2.5)),
    # an eliminated order is a target order, odd and >= 3: the fundamental
    # reported 1.0, an even order about 1e-16
    ("thd_report-order-1", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=(1,))),
    ("thd_report-order-2", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=(2,))),
    # TypeError: the orders were iterated
    ("thd_report-eliminated-3", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=3)),
    ("thd_report-eliminated-none", "eliminated_orders",
     lambda p: thd_report(WAVE, eliminated_orders=None)),
    # orders sharing an odd factor: multistart returned samples of a root
    # continuum as branches (52 for (3, 9) at 5 degrees, 115 for (3, 9, 15))
    ("orders-factor-3", "orders", lambda p: HarmonicTargetSet((3, 9))),
    ("orders-factor-5", "orders", lambda p: HarmonicTargetSet((5, 15))),
    ("orders-factor-3-of-3", "orders", lambda p: HarmonicTargetSet((3, 9, 15))),
    ("orders-factor-3-of-4", "orders", lambda p: HarmonicTargetSet((3, 15, 21, 27))),
    # a bool is neither an angle, an order nor a time: 1 rad, 1 degree, b_1,
    # and a sample or integral at 1 s or 1 rad
    ("angles-true", "angles", lambda p: AngleSet((True,))),
    ("from_degrees-true", "angles", lambda p: AngleSet.from_degrees([True, 40.0])),
    ("harmonic-n-true", "n", lambda p: harmonic_amplitude(ANGLES, 500.0, True)),
    ("sample_at-true", "t", lambda p: WAVE.sample_at(True)),
    ("angle_integral-true", "phase", lambda p: WAVE.angle_integral(True)),
    # TypeError or a ComplexWarning from the float conversion, numpy's
    # ValueError from the truth of an array or from parsing a string
    ("simulate-initial-complex", "initial_state",
     lambda p: simulate(LINK, DRIVE, 512, initial_state=1j)),
    ("simulate-initial-complex-array", "initial_state",
     lambda p: simulate(LINK, DRIVE, 512, initial_state=np.full(4, 1j))),
    ("energy-r_ac-array", "r_ac",
     lambda p: energy_balance_residual(simulate(LINK, DRIVE, 512), LINK, np.eye(2))),
    ("dft-str", "samples", lambda p: dft_spectrum("abc", 50.0, 9)),
    ("dft-complex", "samples", lambda p: dft_spectrum(np.zeros(64, dtype=complex), 50.0, 9)),
    # a list as the angle set was accepted; a list or a tuple of orders as the
    # targets, or a list of angles, raised AttributeError
    ("wave-angle_set-list", "angle_set", lambda p: SteppedWaveform([0.2, 0.7], 500.0, 85e3)),
    ("synth-angle_set-list", "angle_set", lambda p: synth([0.2, 0.7], 500.0, 85e3)),
    ("multistart-targets-tuple", "targets", lambda p: solve_multistart((3, 5, 7))),
    ("oracle-targets-tuple", "targets", lambda p: grid_oracle((3, 5, 7), 5.0)),
    ("newton-initial-list", "initial", lambda p: solve_newton([0.2, 0.7, 1.2], TARGETS)),
    ("newton-targets-tuple", "targets", lambda p: solve_newton(ANGLES, (3, 5, 7))),
    ("residual-angles-list", "angles", lambda p: residual([0.2, 0.7, 1.2], TARGETS)),
    ("jacobian-targets-list", "targets", lambda p: jacobian(ANGLES, [3, 5, 7])),
    # named grid_step_deg, which the caller never passed: the 5 degree
    # lattice has 17 values, so 18 orders have no ascending seed
    ("multistart-orders-18", "orders",
     lambda p: solve_multistart(HarmonicTargetSet(tuple(range(3, 39, 2))))),
    # a RuntimeWarning, then nan in every field, an infinite P_out, or a nan
    # ratio; with a diode drop, numpy's LinAlgError. Each value is outside the
    # magnitude domain, which names it
    ("fha-V_dc-1e308", "V_dc", lambda p: fha_solve(replace(LINK, V_dc=1e308))),
    ("fha-V_dc-1e200", "V_dc", lambda p: fha_solve(replace(LINK, V_dc=1e200))),
    ("fha-diode-V_dc-1e200", "V_dc",
     lambda p: fha_solve(replace(LINK, V_dc=1e200, diode_drop=1.0))),
    ("power_scaling-1e308", "V_dc_a", lambda p: power_scaling_check(LINK, 1e308, 150.0)),
    # Python's OverflowError from the ** 2 of the diode drop's quadratic
    ("fha-diode-L-1e150", "L1",
     lambda p: fha_solve(replace(LINK, L1=1e150, L2=1e150, diode_drop=1.0))),
    ("fha-diode-f_s-1e300", "f_s",
     lambda p: fha_solve(replace(LINK, f_s=1e300, diode_drop=1.0))),
    # AttributeError from a field of the missing record
    ("fha-params-none", "params", lambda p: fha_solve(None)),
    ("simulate-params-none", "params", lambda p: simulate(None, DRIVE, 512)),
    ("metrics-trace-none", "trace", lambda p: steady_state_metrics(None, LINK)),
    ("metrics-params-none", "params",
     lambda p: steady_state_metrics(simulate(LINK, DRIVE, 512), None)),
    ("energy-trace-none", "trace", lambda p: energy_balance_residual(None, LINK, LINK.r_ac)),
    ("energy-params-none", "params",
     lambda p: energy_balance_residual(simulate(LINK, DRIVE, 512), None, LINK.r_ac)),
    ("thd_report-w-none", "w", lambda p: thd_report(None)),
    # with a diode drop: Python's OverflowError from abs(Z11), whose parts
    # are finite; ZeroDivisionError where the quadratic's c underflows to -0.0.
    # The link's fields are checked in order, so L1 is named before R1
    ("fha-diode-abs-Z11", "L1", lambda p: fha_solve(
        replace(LINK, R1=1.7e308, L1=1.7e308 / (2 * math.pi * 85e3), diode_drop=1.0))),
    ("fha-diode-V_dc-1e-170", "V_dc",
     lambda p: fha_solve(replace(LINK, V_dc=1e-170, diode_drop=1e-172))),
    # an infinite amplitude, a THD of 0.0, or a RuntimeWarning and nan from
    # the interval means, the DFT or the squares of the THD band
    ("harmonic-step-1e308", "step_voltage", lambda p: harmonic_amplitude(ANGLES, 1e308, 1)),
    ("fund_rms-step-1e308", "step_voltage", lambda p: fundamental_rms(ANGLES, 1e308)),
    ("analytic-step-1e308", "step_voltage",
     lambda p: analytic_spectrum(ANGLES, 1e308, 85e3, 21)),
    ("thd_closed-step-1e308", "step_voltage", lambda p: thd_total_closed_form(ANGLES, 1e308)),
    ("wdft-step-1e308", "step_voltage",
     lambda p: waveform_dft_spectrum(synth(ANGLES, 1e308, 85e3), 5)),
    ("wdft-step-1e304", "step_voltage",
     lambda p: waveform_dft_spectrum(synth(ANGLES, 1e304, 85e3), 5, 65536)),
    ("thd_report-step-1e200", "step_voltage", lambda p: thd_report(synth(ANGLES, 1e200, 85e3))),
    # outside the magnitude domain: a THD band of 0.0, its squares underflowed;
    # a value, and an accepted link
    ("thd_report-step-1e-170", "step_voltage", lambda p: thd_report(synth(ANGLES, 1e-170, 85e3))),
    ("total_rms-step-1e-16", "step_voltage", lambda p: total_rms(ANGLES, 1e-16)),
    ("link-V_dc-1e16", "V_dc", lambda p: WptLinkParams(
        L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3, R_load_dc=50.0, V_dc=1e16, f_s=85e3)),
    # a path is a string or a path object: None wrote None.meta.json into the
    # working directory, bytes opened a file, and None, a float or a list
    # raised TypeError from open
    ("sidecar-path-none", "path", lambda p: write_meta_sidecar(None)),
    ("json-path-none", "path", lambda p: write_json({"a": 1}, None)),
    ("json-path-bytes", "path", lambda p: write_json({"a": 1}, os.fsencode(p))),
    ("csv-path-float", "path", lambda p: waveform_to_csv(WAVE, 2.5, 4)),
    ("spectrum-csv-path-list", "path", lambda p: spectrum_to_csv(SPEC, [p])),
    ("waveform-svg-path-none", "path", lambda p: waveform_svg([0.0, 1.0], [0.0, 1.0], None)),
    ("spectrum-svg-path-float", "path", lambda p: spectrum_svg([1, 3], [1.0, 0.1], 2.5)),
    # numpy's ValueError: a ragged list is not one array
    ("sample_at-ragged", "t", lambda p: WAVE.sample_at(RAGGED)),
    ("angle_integral-ragged", "phase", lambda p: WAVE.angle_integral(RAGGED)),
    ("dft-ragged", "samples", lambda p: dft_spectrum(RAGGED, 50.0, 9)),
    ("simulate-initial-ragged", "initial_state",
     lambda p: simulate(LINK, DRIVE, 512, initial_state=RAGGED)),
    # a long double past the float64 range passed the finiteness test and
    # became inf in the float64 cast: sample_at gave [0.], angle_integral
    # [nan], and HarmonicSpectrum stored inf
    ("sample_at-longdouble-1e400", "t", lambda p: WAVE.sample_at(HUGE)),
    ("angle_integral-longdouble-1e400", "phase", lambda p: WAVE.angle_integral(HUGE)),
    ("dft-longdouble-1e400", "samples",
     lambda p: dft_spectrum(np.append(np.zeros(63), HUGE), 50.0, 9)),
    ("simulate-initial-longdouble-1e400", "initial_state",
     lambda p: simulate(LINK, DRIVE, 512, initial_state=np.append(np.zeros(3), HUGE))),
    ("spectrum-amplitudes-longdouble-1e400", "amplitudes",
     lambda p: HarmonicSpectrum(85e3, np.append(np.zeros(2), HUGE))),
    # simulate has no diode model: it traced the link as if the drop were 0
    ("simulate-diode-drop", "diode_drop",
     lambda p: simulate(replace(LINK, diode_drop=1.4), DRIVE, 512)),
    # accepted: thd then raised TypeError or ValueError, warned ComplexWarning,
    # or returned a wrong value or nan
    ("spectrum-amplitudes-none", "amplitudes", lambda p: HarmonicSpectrum(85e3, None)),
    ("spectrum-amplitudes-str", "amplitudes", lambda p: HarmonicSpectrum(85e3, "abc")),
    ("spectrum-amplitudes-set", "amplitudes", lambda p: HarmonicSpectrum(85e3, {1.0, 2.0})),
    ("spectrum-amplitudes-complex", "amplitudes",
     lambda p: HarmonicSpectrum(85e3, np.array([1j, 2j]))),
    ("spectrum-amplitudes-2d", "amplitudes", lambda p: HarmonicSpectrum(85e3, np.ones((4, 2)))),
    ("spectrum-amplitudes-one", "amplitudes", lambda p: HarmonicSpectrum(85e3, np.ones(1))),
    ("spectrum-amplitudes-nan", "amplitudes",
     lambda p: HarmonicSpectrum(85e3, [0.0, math.nan, 1.0])),
    ("spectrum-amplitudes-object", "amplitudes",
     lambda p: HarmonicSpectrum(85e3, np.array([0.0, 1.0], dtype=object))),
    ("spectrum-f1-nan", "fundamental_frequency",
     lambda p: HarmonicSpectrum(math.nan, np.ones(3))),
    ("spectrum-f1-0", "fundamental_frequency", lambda p: HarmonicSpectrum(0.0, np.ones(3))),
    ("spectrum-f1-true", "fundamental_frequency", lambda p: HarmonicSpectrum(True, np.ones(3))),
]


@pytest.mark.parametrize(
    "argument, call", [row[1:] for row in BAD_CALLS], ids=[row[0] for row in BAD_CALLS]
)
def test_bad_arguments_raise_a_validation_error_naming_them(
    tmp_path, monkeypatch, argument, call
):
    # the working directory is tmp_path, and nothing is written into it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError, match=rf"^{argument}\b"):
        call(tmp_path / "out.csv")
    assert os.listdir(tmp_path) == []


# each wrote into the descriptor's file (or read it) and then closed it
FD_CALLS = [
    ("waveform-csv", lambda fd: waveform_to_csv(WAVE, fd, 4)),
    ("spectrum-csv", lambda fd: spectrum_to_csv(SPEC, fd)),
    ("trace-csv", lambda fd: simulate(LINK, DRIVE, 512).to_csv(fd)),
    ("json", lambda fd: write_json({"a": 1}, fd)),
    # wrote "<fd>.meta.json" into the working directory
    ("sidecar", lambda fd: write_meta_sidecar(fd)),
    ("waveform-svg", lambda fd: waveform_svg([0.0, 1.0], [0.0, 1.0], fd)),
    ("spectrum-svg", lambda fd: spectrum_svg([1, 3], [1.0, 0.1], fd)),
    ("numpy-integer", lambda fd: waveform_to_csv(WAVE, np.int64(fd), 4)),
]


@pytest.mark.parametrize("call", [row[1] for row in FD_CALLS], ids=[row[0] for row in FD_CALLS])
def test_an_integer_path_is_refused_before_anything_is_opened(tmp_path, monkeypatch, call):
    monkeypatch.chdir(tmp_path)
    owned = tmp_path / "owned"
    fd = os.open(owned, os.O_RDWR | os.O_CREAT)
    inode = os.fstat(fd).st_ino
    try:
        with pytest.raises(ValidationError, match=r"^path\b"):
            call(fd)
        assert owned.stat().st_size == 0
        assert sorted(os.listdir(tmp_path)) == ["owned"]
    finally:
        # the descriptor is still the test's own, open on the same file
        assert os.fstat(fd).st_ino == inode
        os.close(fd)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: waveform_to_csv(WAVE, p, samples=np.int64(64)),
        lambda p: interval_mean_samples(WAVE, np.int32(64)),
        lambda p: waveform_dft_spectrum(WAVE, np.int64(21), np.int64(64)),
        lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, np.int64(21)),
        lambda p: AngleSet((np.float32(0.1), np.float64(0.2), 1)),
        lambda p: HarmonicTargetSet((np.int64(3), 5.0)),
        lambda p: analytic_spectrum(ANGLES, np.float32(500.0), np.int64(85_000), 21).amplitude(
            np.int64(3)
        ),
        lambda p: harmonic_amplitude(ANGLES, np.float64(500.0), np.float64(3.0)),
        lambda p: SquareDrive(np.float32(0.0), np.int64(85_000)),
        lambda p: WAVE.sample_at(np.arange(3, dtype=np.int32)),
        lambda p: WAVE.angle_integral(np.float32(1.0)),
        lambda p: WptLinkParams(L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=np.float32(0.3),
                                R_load_dc=50.0, V_dc=100.0, f_s=85e3),
        lambda p: AngleSet.from_degrees(np.array([11, 41, 85])),
        lambda p: grid_oracle(TARGETS, np.int64(15)),
        lambda p: thd_report(WAVE, np.array([3, 5]), np.int64(99), np.int64(1024)),
        lambda p: dft_spectrum(np.arange(64), 50.0, 9),
        lambda p: simulate(LINK, DRIVE, 512, initial_state=[0, 0, 0, np.float32(1.0)]),
        lambda p: energy_balance_residual(
            simulate(LINK, DRIVE, 512), LINK, np.float64(LINK.r_ac)),
        lambda p: HarmonicTargetSet((3,)),
        lambda p: HarmonicTargetSet((9, 15, 25)),
    ],
    ids=["csv", "means", "wdft", "analytic", "angles", "orders", "amplitude",
         "harmonic", "square", "times", "phase", "link-k", "degrees", "oracle", "thd_report",
         "dft-integers", "initial-state", "r_ac", "one-order", "no-common-factor"],
)
def test_numpy_integers_and_reals_are_accepted(tmp_path, call):
    call(tmp_path / "out.csv")


# every public callable: each name in the __all__ of each shewpt module
PUBLIC_CALLABLES = [
    f"{module.__name__}.{name}"
    for module in (importlib.import_module(f"shewpt.{info.name}")
                   for info in pkgutil.iter_modules(shewpt.__path__))
    for name in getattr(module, "__all__", ())
    if callable(getattr(module, name))
]

PATH = object()  # a fresh file path in a valid call
TRACE = simulate(LINK, DRIVE, 512)

# one valid call of each public callable, by its positional arguments
VALID_CALLS = {
    "shewpt.she_solver.HarmonicTargetSet": ((3, 5, 7),),
    "shewpt.she_solver.SheSolution": (ANGLES, 0.0, 0),
    "shewpt.she_solver.residual": (ANGLES, TARGETS),
    "shewpt.she_solver.jacobian": (ANGLES, TARGETS),
    "shewpt.she_solver.solve_newton": (ANGLES, TARGETS),
    "shewpt.she_solver.solve_multistart": (HarmonicTargetSet((3,)),),
    "shewpt.she_solver.grid_oracle": (TARGETS, 15.0),
    "shewpt.waveform.AngleSet": ((0.2, 0.7),),
    "shewpt.waveform.SteppedWaveform": (ANGLES, 500.0, 85e3),
    "shewpt.waveform.synth": (ANGLES, 500.0, 85e3),
    "shewpt.waveform.harmonic_amplitude": (ANGLES, 500.0, 3),
    "shewpt.waveform.fundamental_rms": (ANGLES, 500.0),
    "shewpt.waveform.total_rms": (ANGLES, 500.0),
    "shewpt.waveform.interval_mean_samples": (WAVE, 64),
    "shewpt.waveform.waveform_to_csv": (WAVE, PATH, 4),
    "shewpt.spectrum.HarmonicSpectrum": (85e3, np.zeros(4)),
    "shewpt.spectrum.ThdReport": (0.2, 0.1, 999, 0.2, 0.0),
    "shewpt.spectrum.dft_spectrum": (np.zeros(64), 50.0, 9),
    "shewpt.spectrum.analytic_spectrum": (ANGLES, 500.0, 85e3, 21),
    "shewpt.spectrum.waveform_dft_spectrum": (WAVE, 21),
    "shewpt.spectrum.thd": (SPEC, 21),
    "shewpt.spectrum.thd_total_closed_form": (ANGLES, 500.0),
    "shewpt.spectrum.thd_report": (WAVE,),
    "shewpt.spectrum.spectrum_to_csv": (SPEC, PATH),
    "shewpt.wpt_link.WptLinkParams": (245e-6, 245e-6, 14e-9, 14e-9, 0.3, 50.0, 100.0, 85e3),
    "shewpt.wpt_link.FhaSolution": (1j, 1j, 100.0, 100.0, 1.0, 1.0),
    "shewpt.wpt_link.fha_solve": (LINK,),
    "shewpt.wpt_link.power_scaling_check": (LINK, 100.0, 150.0),
    "shewpt.transient_sim.TransientTrace": (1e-8, np.zeros((513, 4)), np.zeros(512), 1.0, 0.5),
    "shewpt.transient_sim.SquareDrive": (100.0, 85e3),
    "shewpt.transient_sim.SteadyStateMetrics": (1.0, 1.0, 1.0, 1.0, True),
    "shewpt.transient_sim.simulate": (LINK, DRIVE, 512),
    "shewpt.transient_sim.steady_state_metrics": (TRACE, LINK),
    "shewpt.transient_sim.energy_balance_residual": (TRACE, LINK, LINK.r_ac),
    "shewpt.reporting.ComparisonRow": ("row", 1.0, 1.0, 0.1),
    "shewpt.reporting.RunReport": ("run", {}),
    "shewpt.reporting.write_json": ({"a": 1}, PATH),
    "shewpt.reporting.write_meta_sidecar": (PATH,),
}

# (callable, record parameter) pairs that take None without an error
NONE_ACCEPTED = {
    # a result record that only the solvers build
    ("shewpt.she_solver.SheSolution", "angle_set"),
}


def _is_record(value):
    return (dataclasses.is_dataclass(value) and not isinstance(value, type)
            and type(value).__module__.startswith("shewpt."))


@pytest.mark.parametrize("key", PUBLIC_CALLABLES)
def test_a_missing_record_raises_a_validation_error_naming_it(tmp_path, key):
    # each record argument of the valid call is replaced by None in turn
    assert key in VALID_CALLS, f"VALID_CALLS needs a valid call of {key}"
    path = tmp_path / "out"
    func, arguments = _valid_arguments(key, path)
    for param, value in arguments.items():
        if _is_record(value) and (key, param) not in NONE_ACCEPTED:
            with pytest.raises(ValidationError, match=rf"^{param}\b"):
                func(**dict(arguments, **{param: None}))
            assert not path.exists()
    func(**arguments)


def _valid_arguments(key, path):
    """The callable of ``key`` and the arguments of its valid call, by name,
    defaults included, with ``path`` for PATH."""
    module_name, name = key.rsplit(".", 1)
    func = getattr(importlib.import_module(module_name), name)
    args = [path if arg is PATH else arg for arg in VALID_CALLS[key]]
    bound = inspect.signature(func).bind(*args)
    bound.apply_defaults()
    return func, bound.arguments


# the magnitude parameters of each public callable, by one rule: each real
# argument of its valid call, defaults included, but those of the records the
# package builds for a caller to read
MAGNITUDES = {
    "shewpt.she_solver.grid_oracle": ("step_deg",),
    "shewpt.waveform.SteppedWaveform": ("step_voltage", "fundamental_frequency"),
    "shewpt.waveform.synth": ("step_voltage", "f1"),
    "shewpt.waveform.harmonic_amplitude": ("step_voltage",),
    "shewpt.waveform.fundamental_rms": ("step_voltage",),
    "shewpt.waveform.total_rms": ("step_voltage",),
    "shewpt.spectrum.HarmonicSpectrum": ("fundamental_frequency",),
    "shewpt.spectrum.dft_spectrum": ("f1",),
    "shewpt.spectrum.analytic_spectrum": ("step_voltage", "f1"),
    "shewpt.spectrum.thd_total_closed_form": ("step_voltage",),
    "shewpt.wpt_link.WptLinkParams": (
        "L1", "L2", "C1", "C2", "k", "R_load_dc", "V_dc", "f_s", "R1", "R2", "diode_drop"),
    "shewpt.wpt_link.power_scaling_check": ("V_dc_a", "V_dc_b"),
    "shewpt.transient_sim.SquareDrive": ("amplitude", "frequency"),
    "shewpt.transient_sim.energy_balance_residual": ("r_ac",),
}
UNCHECKED_RECORDS = {
    "shewpt.she_solver.SheSolution",
    "shewpt.spectrum.ThdReport",
    "shewpt.wpt_link.FhaSolution",
    "shewpt.transient_sim.TransientTrace",
    "shewpt.transient_sim.SteadyStateMetrics",
    "shewpt.reporting.ComparisonRow",
}


@pytest.mark.parametrize("key", [key for key in PUBLIC_CALLABLES if key not in UNCHECKED_RECORDS])
def test_the_magnitudes_are_the_real_arguments(tmp_path, key):
    _, arguments = _valid_arguments(key, tmp_path / "out")
    reals = tuple(param for param, value in arguments.items() if isinstance(value, float))
    assert reals == MAGNITUDES.get(key, ())


@pytest.mark.parametrize("value", [1e-16, 1e16])
@pytest.mark.parametrize(
    "key, param", [(key, param) for key, params in MAGNITUDES.items() for param in params]
)
def test_a_magnitude_outside_the_domain_raises_naming_it(tmp_path, key, param, value):
    func, arguments = _valid_arguments(key, tmp_path / "out")
    with pytest.raises(ValidationError, match=rf"^{param}\b"):
        func(**dict(arguments, **{param: value}))


def test_the_least_load_passes_its_own_r_ac():
    # r_ac = 8e-15 / pi^2 = 8.1e-16 is below the magnitude domain: the rule
    # for energy_balance_residual's r_ac is equality with trace.r_ac
    link = replace(LINK, R_load_dc=1e-15)
    assert link.r_ac < 1e-15
    trace = simulate(link, DRIVE, 512, initial_state=np.zeros(4))
    assert math.isfinite(energy_balance_residual(trace, link, link.r_ac))


def test_the_magnitude_tables_name_public_callables():
    assert set(MAGNITUDES) | UNCHECKED_RECORDS <= set(PUBLIC_CALLABLES)
