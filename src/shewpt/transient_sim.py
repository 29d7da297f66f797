"""Fixed-step time-domain integration of the series-series resonant tank.

State x = (i1, i2, vC1, vC2) obeys the linear mesh equations

    [L1 M; M L2] * d[i1; i2]/dt = [v_drive - vC1 - R1*i1; -vC2 - (R2+R_ac)*i2]
    dvC1/dt = i1/C1,  dvC2/dt = i2/C2

driven by the inverter square or staircase voltage, held constant over
each integration step (switching angles snapped to the step grid). The
integrator is classical fourth-order Runge-Kutta; because the system is
linear with piecewise-constant drive, the RK4 update collapses to the
exact affine map x -> Phi x + Gamma v, which is precomputed once and
applied per step.

Over one cycle the tank is then the affine map x -> P x + q; its periodic
steady state is the fixed point x* = (I - P)^-1 q (shooting for a linear
circuit: Aprille & Trick, Proc. IEEE 60(1), 1972), and the spectral radius
of P is the factor by which a start-up transient decays per cycle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .waveform import SteppedWaveform, _signed_level_count
# fha_solve is not called here; it stays a module attribute because the
# benchmark's traced run (bench/spans.py) patches transient_sim.fha_solve
from .wpt_link import WptLinkParams, fha_solve  # noqa: F401

__all__ = [
    "TankState",
    "TransientTrace",
    "SquareDrive",
    "SteadyStateMetrics",
    "derivatives",
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
        if not self.amplitude >= 0:
            raise ValidationError(f"amplitude: {self.amplitude!r} must be >= 0")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValidationError(f"frequency: {self.frequency!r} must be finite and > 0")


@dataclass(frozen=True)
class TankState:
    i1: float
    i2: float
    vC1: float
    vC2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.vC1, self.vC2])

    def energy(self, params: WptLinkParams) -> float:
        m = params.mutual
        return (
            0.5 * params.L1 * self.i1**2
            + 0.5 * params.L2 * self.i2**2
            + m * self.i1 * self.i2
            + 0.5 * params.C1 * self.vC1**2
            + 0.5 * params.C2 * self.vC2**2
        )


@dataclass(frozen=True)
class TransientTrace:
    """One drive cycle on a uniform grid; states[s] = (i1, i2, vC1, vC2) at s*dt."""

    dt: float
    states: np.ndarray  # (steps_per_cycle + 1, 4)
    drive: np.ndarray  # (steps_per_cycle,) held over [s*dt, (s+1)*dt)
    steps_per_cycle: int
    r_ac: float  # the AC load resistance the tank was integrated with
    spectral_radius: float  # of the one-cycle propagator P
    angle_snap_error_rad: float

    def to_csv(self, path) -> None:
        """Header ``t_s,v_drive_V,i1_A,i2_A,vC1_V,vC2_V``."""
        drive = np.append(self.drive, self.drive[0] if len(self.drive) else 0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "v_drive_V", "i1_A", "i2_A", "vC1_V", "vC2_V"])
            for s, row in enumerate(self.states):
                writer.writerow(
                    [repr(s * self.dt), repr(float(drive[s]))]
                    + [repr(float(x)) for x in row]
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


def _system_matrices(params: WptLinkParams, r_ac: float):
    m = params.mutual
    l_inv = np.linalg.inv(np.array([[params.L1, m], [m, params.L2]]))
    a = np.zeros((4, 4))
    a[0:2, 0:2] = l_inv @ np.diag([-params.R1, -(params.R2 + r_ac)])
    a[0:2, 2:4] = -l_inv
    a[2, 0] = 1.0 / params.C1
    a[3, 1] = 1.0 / params.C2
    b = np.zeros(4)
    b[0:2] = l_inv[:, 0]  # di/dt per volt of drive
    return a, b


def derivatives(
    state: TankState, v_drive: float, params: WptLinkParams, R_ac: float
) -> np.ndarray:
    """Exact state derivative (di1, di2, dvC1, dvC2)/dt."""
    a, b = _system_matrices(params, R_ac)
    return a @ state.as_array() + b * v_drive


def _drive_samples(drive, steps_per_cycle: int):
    """Per-step drive voltages over one cycle, plus the angle snap error."""
    if isinstance(drive, SquareDrive):
        half = steps_per_cycle // 2
        v = np.where(np.arange(steps_per_cycle) < half, drive.amplitude, -drive.amplitude)
        return v, drive.frequency, 0.0
    if isinstance(drive, SteppedWaveform):
        grid = 2 * math.pi / steps_per_cycle
        theta = drive.angle_set.as_array()
        snapped = np.round(theta / grid) * grid
        snap_err = float(np.max(np.abs(snapped - theta)))
        phases = np.arange(steps_per_cycle) * grid
        # half-grid slack makes the edge comparison exact despite float mod
        count = _signed_level_count(snapped - 0.5 * grid, phases)
        v = count * drive.step_voltage
        return v, drive.fundamental_frequency, snap_err
    raise ValidationError(f"drive: unsupported type {type(drive).__name__}")


def simulate(
    params: WptLinkParams,
    drive,
    steps_per_cycle: int = 4096,
    r_ac: float | None = None,
    initial_state: TankState | None = None,
) -> TransientTrace:
    """One drive cycle from ``initial_state``, else from the periodic steady state.

    Raises DivergenceError when the cycle propagator or a state is not
    finite or exceeds 1e9, and, for the steady state, when the propagator's
    spectral radius is >= 1 (a lossless tank rounds to that). ``r_ac``
    defaults to the FHA equivalent load of the DC load.
    """
    if steps_per_cycle < 512 or steps_per_cycle & (steps_per_cycle - 1):
        raise ValidationError(
            f"steps_per_cycle: {steps_per_cycle!r} must be a power of two >= 512"
        )
    if r_ac is None:
        r_ac = params.r_ac
    v_cycle, freq, snap_err = _drive_samples(drive, steps_per_cycle)
    dt = 1.0 / (freq * steps_per_cycle)

    a, b = _system_matrices(params, r_ac)
    ah = a * dt
    ah2 = ah @ ah
    eye = np.eye(4)
    phi = eye + ah + ah2 / 2 + ah2 @ ah / 6 + ah2 @ ah2 / 24
    gamma = (dt * (eye + ah / 2 + ah2 / 6 + ah2 @ ah / 24)) @ b

    # within-cycle propagators: x_s = pow[s] @ x_0 + conv[s]
    pow_mats = np.empty((steps_per_cycle + 1, 4, 4))
    conv = np.empty((steps_per_cycle + 1, 4))
    pow_mats[0] = eye
    conv[0] = 0.0
    # unstable steps overflow harmlessly here; the finiteness check below
    # turns them into DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps_per_cycle):
            pow_mats[s + 1] = phi @ pow_mats[s]
            conv[s + 1] = phi @ conv[s] + gamma * v_cycle[s]
    p, q = pow_mats[-1], conv[-1]
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise DivergenceError("one-cycle propagator is not finite")
    rho = float(np.max(np.abs(np.linalg.eigvals(p))))
    if initial_state is not None:
        x = initial_state.as_array()
    elif rho < 1.0:
        x = np.linalg.solve(eye - p, q)
    else:
        raise DivergenceError(f"spectral radius {rho!r} >= 1: no periodic steady state")
    states = np.einsum("sij,j->si", pow_mats, x) + conv
    bad = ~np.isfinite(states).all(axis=1) | (np.abs(states).max(axis=1) > 1e9)
    if np.any(bad):
        raise DivergenceError(f"state magnitude exceeded 1e9 at step {int(np.argmax(bad))}")
    return TransientTrace(
        dt=dt,
        states=states,
        drive=v_cycle,
        steps_per_cycle=steps_per_cycle,
        r_ac=r_ac,
        spectral_radius=rho,
        angle_snap_error_rad=snap_err,
    )


def steady_state_metrics(
    trace: TransientTrace, params: WptLinkParams
) -> SteadyStateMetrics:
    """RMS currents, powers, and the sampled ZVS check over the traced cycle.

    Cycle means carry an Euler-Maclaurin correction for the current-slope
    jumps at the drive switching edges; without it the trapezoidal mean of
    i^2 is only second-order accurate in the step size.
    """
    r_ac = trace.r_ac
    spc = trace.steps_per_cycle
    cycle = trace.states[:-1]  # one full cycle, left-closed
    i1, i2 = cycle[:, 0], cycle[:, 1]
    drive = trace.drive

    _, b = _system_matrices(params, r_ac)
    prev = np.roll(drive, 1)
    edges = np.nonzero(drive != prev)[0]
    dv = drive[edges] - prev[edges]
    # mean of i^2 with the slope-jump correction: each drive edge kinks di/dt
    # by b[0:2] * dv, leaving an O(h^2) trapezoid defect per edge

    def mean_sq(i, slope_gain):
        corr = np.sum(2.0 * i[edges] * slope_gain * dv) * trace.dt / 12.0
        return float(np.mean(i**2) + corr / spc)

    mean_i1_sq = mean_sq(i1, b[0])
    mean_i2_sq = mean_sq(i2, b[1])
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
    energy moved during the cycle.
    """
    seg, drive = trace.states, trace.drive
    i1, i2 = seg[:, 0], seg[:, 1]
    mid1 = 0.5 * (i1[:-1] + i1[1:])
    sq1 = 0.5 * (i1[:-1] ** 2 + i1[1:] ** 2)
    sq2 = 0.5 * (i2[:-1] ** 2 + i2[1:] ** 2)
    e_in = float(np.sum(drive * mid1) * trace.dt)
    e_diss = float(
        np.sum(params.R1 * sq1 + (params.R2 + r_ac) * sq2) * trace.dt
    )

    def energy(row):
        return TankState(*row).energy(params)

    de = energy(seg[-1]) - energy(seg[0])
    gross = max(
        abs(e_in),
        e_diss,
        float(np.sum(np.abs(drive * mid1)) * trace.dt),
        1e-300,
    )
    return abs(de - (e_in - e_diss)) / gross

