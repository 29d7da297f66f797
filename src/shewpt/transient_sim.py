"""Fixed-step time-domain integration of the series-series resonant tank.

State x = (i1, i2, vC1, vC2) obeys the linear mesh equations

    [L1 M; M L2] * d[i1; i2]/dt = [v_drive - vC1 - R1*i1; -vC2 - (R2+R_ac)*i2]
    dvC1/dt = i1/C1,  dvC2/dt = i2/C2

driven by the inverter square or staircase voltage, held constant over
each integration step at its exact mean over that step (the interval means
of the waveform module), so a switching edge between step boundaries keeps
its area, and a step that holds no edge holds its level exactly. The
integrator is classical fourth-order Runge-Kutta; because the system is
linear with piecewise-constant drive, the RK4 update collapses to the
exact affine map x -> Phi x + Gamma v, which is precomputed once. The
within-cycle propagators x_s = Phi^s x_0 + c_s are then built in log2(N)
batched passes rather than N sequential steps: the powers Phi^s by
doubling, and the offsets c_s by an inclusive Hillis-Steele scan of the
affine step maps (Hillis & Steele, "Data parallel algorithms", CACM 29(12),
1986; Blelloch, "Prefix sums and their applications", CMU-CS-90-190, 1990).
Both are stored state-major, the powers as (4, N + 1, 4) and the offsets as
(4, N + 1), so that each doubling round is one matrix product on strided
views of them rather than a 4x4 product per step; each entry is still the
same four-term sum in the same order, so the bits are those of the per-step
products (a test compares them byte for byte).

Over one cycle the tank is then the affine map x -> P x + q; its periodic
steady state is the fixed point x* = (I - P)^-1 q (shooting for a linear
circuit: Aprille & Trick, Proc. IEEE 60(1), 1972), and the spectral radius
of P is the factor by which a start-up transient decays per cycle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, _as_real_array, _check_count
from .errors import _check_magnitude, _check_record
from .reporting import _write_csv
from .waveform import SteppedWaveform, _interval_means
# fha_solve is not called here; it stays a module attribute because the
# benchmark's traced run (bench/spans.py) patches transient_sim.fha_solve
from .wpt_link import WptLinkParams, fha_solve  # noqa: F401

__all__ = [
    "TransientTrace",
    "SquareDrive",
    "SteadyStateMetrics",
    "simulate",
    "steady_state_metrics",
    "energy_balance_residual",
]


@dataclass(frozen=True)
class SquareDrive:
    """Full-bridge square wave: +amplitude for the first half period."""

    amplitude: float
    frequency: float

    def __post_init__(self):
        _check_magnitude("amplitude", self.amplitude, allow_zero=True)
        _check_magnitude("frequency", self.frequency)


@dataclass(frozen=True)
class TransientTrace:
    """One drive cycle on a uniform grid; states[s] = (i1, i2, vC1, vC2) at s*dt."""

    dt: float
    states: np.ndarray  # (steps_per_cycle + 1, 4)
    drive: np.ndarray  # (steps_per_cycle,) held over [s*dt, (s+1)*dt)
    r_ac: float  # the AC load resistance the tank was integrated with
    spectral_radius: float  # of the one-cycle propagator P

    @property
    def steps_per_cycle(self) -> int:
        return len(self.drive)

    def to_csv(self, path) -> None:
        """Header ``t_s,v_drive_V,i1_A,i2_A,vC1_V,vC2_V``."""
        _write_csv(
            path, ["t_s", "v_drive_V", "i1_A", "i2_A", "vC1_V", "vC2_V"],
            np.arange(len(self.states)) * self.dt,
            np.append(self.drive, self.drive[0]),
            *self.states.T,
        )


@dataclass(frozen=True)
class SteadyStateMetrics:
    I1_rms: float
    I2_rms: float
    P_out: float
    P_in_fundamental_cycle: float
    zvs: bool

    def to_dict(self) -> dict:
        return {
            "I1_rms_A": self.I1_rms,
            "I2_rms_A": self.I2_rms,
            "P_out_W": self.P_out,
            "P_in_W": self.P_in_fundamental_cycle,
            "zvs": self.zvs,
        }


def _system_matrices(params: WptLinkParams):
    m = params.mutual
    l_inv = np.linalg.inv(np.array([[params.L1, m], [m, params.L2]]))
    a = np.zeros((4, 4))
    a[0:2, 0:2] = l_inv @ np.diag([-params.R1, -(params.R2 + params.r_ac)])
    a[0:2, 2:4] = -l_inv
    a[2, 0] = 1.0 / params.C1
    a[3, 1] = 1.0 / params.C2
    b = np.zeros(4)
    b[0:2] = l_inv[:, 0]  # di/dt per volt of drive
    return a, b


def _drive_samples(drive, steps_per_cycle: int):
    """Per-step drive voltages over one cycle, each the drive's exact mean
    over its step, and the drive frequency."""
    if isinstance(drive, SquareDrive):
        # the one-layer staircase that switches at theta = 0
        theta, level, freq = np.zeros(1), drive.amplitude, drive.frequency
    elif isinstance(drive, SteppedWaveform):
        theta = drive.angle_set.as_array()
        level, freq = drive.step_voltage, drive.fundamental_frequency
    else:
        raise ValidationError(f"drive: unsupported type {type(drive).__name__}")
    return level * _interval_means(theta, steps_per_cycle), freq


# Longest cycle simulate accepts: its (4, steps + 1, 4) float64 propagator
# stack is 128 MiB at 2**20 steps.
MAX_STEPS_PER_CYCLE = 2**20


def simulate(
    params: WptLinkParams,
    drive,
    steps_per_cycle: int = 4096,
    initial_state: np.ndarray | None = None,
) -> TransientTrace:
    """One drive cycle from ``initial_state``, else from the periodic steady state.

    The load is ``params.r_ac``, and ``params.diode_drop`` is 0: the tank has
    no diode model. ``steps_per_cycle`` is an integer power of two.
    ``initial_state`` is a state row (i1, i2, vC1, vC2) of four finite values.
    Raises DivergenceError when the cycle propagator or a state is not
    finite (naming the first such step: one reduction checks the whole
    cycle, and only a failing one is scanned step by step), and, for the
    steady state, when the propagator's spectral radius is >= 1 (a lossless
    tank rounds to that).
    """
    _check_record("params", params, WptLinkParams)
    if params.diode_drop:
        raise ValidationError(f"diode_drop: {params.diode_drop!r} must be 0 (no diode model)")
    _check_count("steps_per_cycle", steps_per_cycle, 1)
    if (
        not 512 <= steps_per_cycle <= MAX_STEPS_PER_CYCLE
        or steps_per_cycle & (steps_per_cycle - 1)
    ):
        raise ValidationError(
            f"steps_per_cycle: {steps_per_cycle!r} must be a power of two "
            f"in [512, {MAX_STEPS_PER_CYCLE}]"
        )
    if initial_state is not None:
        initial_state = _as_real_array("initial_state", initial_state)
        if initial_state.shape != (4,):
            raise ValidationError("initial_state: must be a row of four values")
    v_cycle, freq = _drive_samples(drive, steps_per_cycle)
    dt = 1.0 / (freq * steps_per_cycle)

    a, b = _system_matrices(params)
    ah = a * dt
    ah2 = ah @ ah
    eye = np.eye(4)
    phi = eye + ah + ah2 / 2 + ah2 @ ah / 6 + ah2 @ ah2 / 24
    gamma = (dt * (eye + ah / 2 + ah2 / 6 + ah2 @ ah / 24)) @ b

    # within-cycle propagators, state-major: x_s = pow[:, s] @ x_0 + conv[:, s]
    n = steps_per_cycle
    pow_mats = np.empty((4, n + 1, 4))
    flat = pow_mats.reshape(4, 4 * (n + 1))  # flat[:, 4 s : 4 s + 4] is Phi^s
    conv = np.empty((4, n + 1))
    pow_mats[:, 0] = eye
    pow_mats[:, 1] = phi
    conv[:, 0] = 0.0
    conv[:, 1:] = gamma[:, None] * v_cycle
    # unstable steps, and a start near the float range, overflow harmlessly
    # here; the finiteness checks below turn them into DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        m = 1
        while m < n:
            # pow[:, 1 : m + 1] is filled, and conv[:, s] sums the last
            # min(s, m) steps' offsets; both passes double that span, each
            # with one matrix product on strided views that copies no slice
            np.matmul(pow_mats[:, m], flat[:, 4 : 4 * (m + 1)],
                      out=flat[:, 4 * (m + 1) : 4 * (2 * m + 1)])
            conv[:, m + 1 :] += pow_mats[:, m] @ conv[:, 1:-m]
            m *= 2
        p, q = pow_mats[:, -1], conv[:, -1]
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            raise DivergenceError("one-cycle propagator is not finite")
        rho = float(np.max(np.abs(np.linalg.eigvals(p))))
        if initial_state is not None:
            x = initial_state
        elif rho < 1.0:
            x = np.linalg.solve(eye - p, q)
        else:
            raise DivergenceError(f"spectral radius {rho!r} >= 1: no periodic steady state")
        # one matrix-vector product over every (row, step); the trace is
        # step-major, (n + 1, 4) and C-contiguous
        states = np.ascontiguousarray(((pow_mats.reshape(-1, 4) @ x).reshape(4, n + 1) + conv).T)
    # one reduction over the whole cycle; only a failing one is scanned for its first bad row
    if not np.isfinite(states).all():
        raise DivergenceError(f"state not finite at step {np.isfinite(states).all(1).argmin()}")
    return TransientTrace(
        dt=dt,
        states=states,
        drive=v_cycle,
        r_ac=params.r_ac,
        spectral_radius=rho,
    )


def steady_state_metrics(
    trace: TransientTrace, params: WptLinkParams
) -> SteadyStateMetrics:
    """RMS currents, powers, and the sampled ZVS check over the traced cycle.

    Cycle means carry an Euler-Maclaurin correction for the current-slope
    jumps at the drive switching edges; without it the trapezoidal mean of
    i^2 is only second-order accurate in the step size.
    """
    _check_record("trace", trace, TransientTrace)
    _check_record("params", params, WptLinkParams)
    r_ac = trace.r_ac
    spc = trace.steps_per_cycle
    cycle = trace.states[:-1]  # one full cycle, left-closed
    i1, i2 = cycle[:, 0], cycle[:, 1]
    drive = trace.drive

    gain = _system_matrices(params)[1][:2]  # di/dt per volt of drive
    prev = np.concatenate((drive[-1:], drive[:-1]))  # cyclic: the step before
    edges = np.nonzero(drive != prev)[0]
    dv = drive[edges] - prev[edges]
    # mean of i^2 with the slope-jump correction: each drive edge kinks di/dt
    # by gain * dv, leaving an O(h^2) trapezoid defect per edge

    def mean_sq(i, slope_gain):
        corr = np.sum(2.0 * i[edges] * slope_gain * dv) * trace.dt / 12.0
        return float(np.mean(i**2) + corr / spc)

    mean_i1_sq = mean_sq(i1, gain[0])
    mean_i2_sq = mean_sq(i2, gain[1])
    i1_rms = math.sqrt(max(0.0, mean_i1_sq))
    i2_rms = math.sqrt(max(0.0, mean_i2_sq))
    p_out = mean_i2_sq * r_ac
    p_in = float(np.mean(drive * i1))

    # rising drive edges within the cycle (cyclic); ZVS holds when i1
    # is still negative at the sample immediately preceding each edge
    rising = np.nonzero(drive > prev)[0]
    zvs = bool(len(rising) > 0 and np.all(i1[(rising - 1) % spc] < 0.0))
    return SteadyStateMetrics(
        I1_rms=i1_rms,
        I2_rms=i2_rms,
        P_out=p_out,
        P_in_fundamental_cycle=p_in,
        zvs=zvs,
    )


def energy_balance_residual(
    trace: TransientTrace, params: WptLinkParams, r_ac: float
) -> float:
    """Relative mismatch between stored-energy change and net injected energy.

    The drive is constant within each step, so the input-energy quadrature
    is v_s times the trapezoidal mean of i1 over the step; dissipation uses
    the trapezoidal mean of the squared currents. Normalised by the gross
    energy moved during the cycle. ``r_ac`` must be the load the trace was
    integrated with, ``trace.r_ac``: equality with it is the rule, not the
    magnitude domain, whose least value is above the r_ac of the least load.
    """
    _check_record("trace", trace, TransientTrace)
    _check_record("params", params, WptLinkParams)
    # a bool is no load, and an array has no single truth value
    if not isinstance(r_ac, numbers.Real) or isinstance(r_ac, bool) or r_ac != trace.r_ac:
        raise ValidationError(f"r_ac: {r_ac!r} is not the trace's load {trace.r_ac!r}")
    seg, drive = trace.states, trace.drive
    i1, i2 = seg[:, 0], seg[:, 1]
    mid1 = 0.5 * (i1[:-1] + i1[1:])
    sq1 = 0.5 * (i1[:-1] ** 2 + i1[1:] ** 2)
    sq2 = 0.5 * (i2[:-1] ** 2 + i2[1:] ** 2)
    e_in = float(np.sum(drive * mid1) * trace.dt)
    e_diss = float(
        np.sum(params.R1 * sq1 + (params.R2 + r_ac) * sq2) * trace.dt
    )

    def stored_energy(x):
        m = params.mutual
        return (
            0.5 * params.L1 * x[0] ** 2
            + 0.5 * params.L2 * x[1] ** 2
            + m * x[0] * x[1]
            + 0.5 * params.C1 * x[2] ** 2
            + 0.5 * params.C2 * x[3] ** 2
        )

    de = stored_energy(seg[-1]) - stored_energy(seg[0])
    gross = max(
        abs(e_in),
        e_diss,
        float(np.sum(np.abs(drive * mid1)) * trace.dt),
        1e-300,
    )
    return float(abs(de - (e_in - e_diss)) / gross)

