"""Bad arguments to the public functions: each raises ValidationError naming
the argument, with warnings raised as errors, instead of a silent answer or a
TypeError or ValueError from deep inside numpy."""

import math

import numpy as np
import pytest

from shewpt import (
    AngleSet,
    HarmonicTargetSet,
    ValidationError,
    analytic_spectrum,
    dft_spectrum,
    solve_multistart,
    solve_newton,
    synth,
    waveform_dft_spectrum,
)
from shewpt.waveform import interval_mean_samples, waveform_to_csv

pytestmark = pytest.mark.filterwarnings("error")

ANGLES = AngleSet.from_degrees([11.0, 41.0, 85.0])
WAVE = synth(ANGLES, 500.0, 85e3)
TARGETS = HarmonicTargetSet((3, 5, 7))

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
    ("newton-max_iter-2.5", "max_iter", lambda p: solve_newton(ANGLES, TARGETS, max_iter=2.5)),
    ("multistart-max_iter-2.5", "max_iter",
     lambda p: solve_multistart(TARGETS, grid_step_deg=15.0, max_iter=2.5)),
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
]


@pytest.mark.parametrize(
    "argument, call", [row[1:] for row in BAD_CALLS], ids=[row[0] for row in BAD_CALLS]
)
def test_bad_arguments_raise_a_validation_error_naming_them(tmp_path, argument, call):
    path = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match=rf"^{argument}\b"):
        call(path)
    assert not path.exists()


@pytest.mark.parametrize(
    "call",
    [
        lambda p: waveform_to_csv(WAVE, p, samples=np.int64(64)),
        lambda p: interval_mean_samples(WAVE, np.int32(64)),
        lambda p: waveform_dft_spectrum(WAVE, np.int64(21), np.int64(64)),
        lambda p: analytic_spectrum(ANGLES, 500.0, 85e3, np.int64(21)),
        lambda p: solve_newton(ANGLES, TARGETS, max_iter=np.int64(60)),
        lambda p: AngleSet((np.float32(0.1), np.float64(0.2), 1)),
        lambda p: HarmonicTargetSet((np.int64(3), 5.0)),
    ],
    ids=["csv", "means", "wdft", "analytic", "newton", "angles", "orders"],
)
def test_numpy_integers_and_reals_are_accepted(tmp_path, call):
    call(tmp_path / "out.csv")
