import json

import pytest

from shewpt import (
    AngleSet,
    HarmonicTargetSet,
    WptLinkParams,
    solve_newton,
    synth,
)

DRIVE_FREQ = 85e3


def _refuse_constant(token):
    raise ValueError(f"{token} is not a strict JSON number")


def read_report(path):
    """The JSON report at ``path``, parsed strictly: the bare tokens NaN,
    Infinity and -Infinity, which Python's json accepts, raise ValueError."""
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_refuse_constant)

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def targets_3():
    return HarmonicTargetSet((3, 5, 7))


@pytest.fixture(scope="session")
def targets_4():
    return HarmonicTargetSet((3, 5, 7, 9))


@pytest.fixture(scope="session")
def solution_3(targets_3):
    return solve_newton(AngleSet.from_degrees([11, 41, 85]), targets_3)


@pytest.fixture(scope="session")
def solution_4(targets_4):
    return solve_newton(AngleSet.from_degrees([9, 26, 50, 86]), targets_4)


@pytest.fixture(scope="session")
def waveform_3(solution_3):
    return synth(solution_3.angle_set, 500.0, DRIVE_FREQ)


@pytest.fixture(scope="session")
def waveform_4(solution_4):
    return synth(solution_4.angle_set, 375.0, DRIVE_FREQ)


@pytest.fixture(scope="session")
def table_params():
    # measured coupled-coil link of the experimental setup
    return WptLinkParams(
        L1=245e-6,
        L2=245e-6,
        C1=14e-9,
        C2=14e-9,
        k=0.309,
        R_load_dc=50.0,
        V_dc=100.0,
        f_s=85e3,
    )
