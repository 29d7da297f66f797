import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shewpt import (
    AngleSet,
    DivergenceError,
    SquareDrive,
    ValidationError,
    fha_solve,
    simulate,
    steady_state_metrics,
    energy_balance_residual,
    synth,
)
from shewpt import transient_sim
from shewpt.waveform import interval_mean_samples


def _tank_equations(params, r_ac):
    # the mesh equations of the module docstring, written out apart from it:
    # dx/dt = a @ x + b * v_drive for x = (i1, i2, vC1, vC2)
    m = params.mutual
    l_inv = np.linalg.inv([[params.L1, m], [m, params.L2]])
    a = np.zeros((4, 4))
    a[0:2, 0:2] = -l_inv * [params.R1, params.R2 + r_ac]
    a[0:2, 2:4] = -l_inv
    a[2, 0] = 1.0 / params.C1
    a[3, 1] = 1.0 / params.C2
    b = np.array([l_inv[0, 0], l_inv[1, 0], 0.0, 0.0])
    return a, b


def _sequential_cycle(params, drive_samples, dt, r_ac, initial_state=None):
    # the per-step loop that built the within-cycle propagators before the
    # log-depth scan: x_s = pow[s] @ x_0 + conv[s], one RK4 step at a time;
    # returns the cycle from initial_state, else the periodic steady-state
    # cycle, and the spectral radius of P
    a, b = _tank_equations(params, r_ac)
    ah = a * dt
    ah2 = ah @ ah
    eye = np.eye(4)
    phi = eye + ah + ah2 / 2 + ah2 @ ah / 6 + ah2 @ ah2 / 24
    gamma = (dt * (eye + ah / 2 + ah2 / 6 + ah2 @ ah / 24)) @ b
    n = len(drive_samples)
    pow_mats = np.empty((n + 1, 4, 4))
    conv = np.empty((n + 1, 4))
    pow_mats[0] = eye
    conv[0] = 0.0
    for s in range(n):
        pow_mats[s + 1] = phi @ pow_mats[s]
        conv[s + 1] = phi @ conv[s] + gamma * drive_samples[s]
    p, q = pow_mats[-1], conv[-1]
    rho = float(np.max(np.abs(np.linalg.eigvals(p))))
    if initial_state is None:
        x = np.linalg.solve(eye - p, q)
    else:
        x = np.asarray(initial_state, dtype=float)
    return np.einsum("sij,j->si", pow_mats, x) + conv, rho


def _drive(params, staircase, angle_set):
    # the square wave of the full bridge, or a staircase of the same peak
    if staircase:
        return synth(angle_set, params.V_dc / 3, params.f_s)
    return SquareDrive(params.V_dc, params.f_s)


def _assert_matches_sequential_loop(params, drive, steps_per_cycle):
    # the scan reassociates the sums of the loop; 1e-11 relative was fixed
    # before it replaced the loop (states relative to each column's peak)
    trace = simulate(params, drive, steps_per_cycle=steps_per_cycle)
    states, rho = _sequential_cycle(params, trace.drive, trace.dt, trace.r_ac)
    peak = np.max(np.abs(states), axis=0)
    assert np.max(np.abs(trace.states - states) / peak) <= 1e-11
    assert trace.spectral_radius == pytest.approx(rho, rel=1e-11, abs=0)
    p_out = steady_state_metrics(trace, params).P_out
    p_ref = steady_state_metrics(replace(trace, states=states), params).P_out
    assert p_out == pytest.approx(p_ref, rel=1e-11, abs=0)


def _stacked_scan_cycle(params, drive, steps_per_cycle, initial_state=None):
    # the step-major doubling scan that simulate ran before its propagators
    # were stored state-major: a (steps + 1, 4, 4) stack of powers, a
    # (steps + 1, 4) stack of offsets and an einsum for the states. The step
    # map and the drive samples are the module's own; the scan is this copy's.
    v_cycle, freq = transient_sim._drive_samples(drive, steps_per_cycle)
    dt = 1.0 / (freq * steps_per_cycle)
    a, b = transient_sim._system_matrices(params)
    ah = a * dt
    ah2 = ah @ ah
    eye = np.eye(4)
    phi = eye + ah + ah2 / 2 + ah2 @ ah / 6 + ah2 @ ah2 / 24
    gamma = (dt * (eye + ah / 2 + ah2 / 6 + ah2 @ ah / 24)) @ b
    pow_mats = np.empty((steps_per_cycle + 1, 4, 4))
    conv = np.empty((steps_per_cycle + 1, 4))
    pow_mats[0] = eye
    pow_mats[1] = phi
    conv[0] = 0.0
    conv[1:] = gamma * v_cycle[:, None]
    m = 1
    while m < steps_per_cycle:
        pow_mats[m + 1 : 2 * m + 1] = pow_mats[m] @ pow_mats[1 : m + 1]
        conv[m + 1 :] += conv[1:-m] @ pow_mats[m].T
        m *= 2
    p, q = pow_mats[-1], conv[-1]
    rho = float(np.max(np.abs(np.linalg.eigvals(p))))
    x = np.linalg.solve(eye - p, q) if initial_state is None else initial_state
    return np.einsum("sij,j->si", pow_mats, x) + conv, v_cycle, rho


def _derivative(x, v_drive, params, r_ac):
    a, b = _tank_equations(params, r_ac)
    return a @ x + b * v_drive


class TestDerivatives:
    # checks of the reference equations above, which the RK4 test relies on
    def test_zero_state_zero_drive(self, table_params):
        d = _derivative(np.zeros(4), 0.0, table_params, 40.0)
        np.testing.assert_array_equal(d, np.zeros(4))

    def test_nearly_uncoupled_primary(self, table_params):
        p = replace(table_params, k=1e-12)
        d = _derivative(np.zeros(4), 100.0, p, 40.0)
        assert d[0] == pytest.approx(100.0 / p.L1, rel=1e-9)
        assert abs(d[1]) < 1e-3  # coupling path carries almost nothing

    def test_capacitor_equations(self, table_params):
        d = _derivative(np.array([2.0, -1.5, 30.0, 10.0]), 0.0, table_params, 40.0)
        assert d[2] == pytest.approx(2.0 / table_params.C1, rel=1e-12)
        assert d[3] == pytest.approx(-1.5 / table_params.C2, rel=1e-12)

    def test_energy_rate_identity(self, table_params):
        # dE/dt must equal injected power minus dissipation
        p = replace(table_params, R1=0.4, R2=0.7)
        r_ac = 40.5
        i1, i2, vc1, vc2 = 3.1, -2.2, 120.0, -45.0
        v = 250.0
        d = _derivative(np.array([i1, i2, vc1, vc2]), v, p, r_ac)
        m = p.mutual
        de_dt = (
            (p.L1 * i1 + m * i2) * d[0]
            + (p.L2 * i2 + m * i1) * d[1]
            + p.C1 * vc1 * d[2]
            + p.C2 * vc2 * d[3]
        )
        expected = v * i1 - p.R1 * i1**2 - (p.R2 + r_ac) * i2**2
        assert de_dt == pytest.approx(expected, rel=1e-12)


class TestSimulate:
    def test_validation(self, table_params):
        drive = SquareDrive(100.0, 85e3)
        with pytest.raises(ValidationError, match="steps_per_cycle"):
            simulate(table_params, drive, steps_per_cycle=1000)
        with pytest.raises(ValidationError, match="steps_per_cycle"):
            simulate(table_params, drive, steps_per_cycle=256)
        with pytest.raises(ValidationError, match="drive"):
            simulate(table_params, object())
        for initial in ([0.0, 0.0, 0.0], [0.0, 0.0, math.nan, 0.0]):
            with pytest.raises(ValidationError, match="initial_state"):
                simulate(table_params, drive, initial_state=initial)

    @pytest.mark.parametrize(
        "spc", [4096.0, np.float64(4096.0)], ids=["float", "float64"]
    )
    def test_rejects_a_float_step_count(self, table_params, spc):
        # the power-of-two test raised TypeError from & on a float
        drive = SquareDrive(100.0, 85e3)
        with pytest.raises(ValidationError, match=r"^steps_per_cycle: \S*4096\.0\S* must be"):
            simulate(table_params, drive, steps_per_cycle=spc)
        assert simulate(table_params, drive, steps_per_cycle=np.int64(512)).drive.size == 512

    def test_square_drive_rejects_a_non_finite_amplitude(self):
        # an infinite amplitude was accepted and surfaced from simulate as a
        # propagator that is not finite
        for amplitude in (math.inf, -math.inf, math.nan, -1.0):
            with pytest.raises(ValidationError, match="amplitude"):
                SquareDrive(amplitude, 85e3)
        assert SquareDrive(0.0, 85e3).amplitude == 0.0

    def test_square_drive_rejects_a_zero_frequency(self):
        with pytest.raises(ValidationError, match="^frequency: 0.0 must be finite and > 0$"):
            SquareDrive(1.0, 0.0)

    def test_cost_guard(self, table_params, monkeypatch):
        # 2**20 steps is a 128 MiB propagator stack; a longer cycle is
        # rejected before any array is built
        class Admitted(Exception):
            pass

        def no_samples(*args):
            raise Admitted

        monkeypatch.setattr(transient_sim, "_drive_samples", no_samples)
        drive = SquareDrive(100.0, 85e3)
        for spc in (2**21, 2**25):
            with pytest.raises(ValidationError, match="steps_per_cycle"):
                simulate(table_params, drive, steps_per_cycle=spc)
        with pytest.raises(Admitted):
            simulate(table_params, drive, steps_per_cycle=2**20)

    @pytest.mark.parametrize("spc", [512, 4096])
    def test_matches_the_sequential_loop(self, table_params, solution_3, spc):
        # 50 and 2000 ohm, 100 and 150 V, square and 3-angle staircase drive
        for r_load, v_dc, staircase in itertools.product(
            (50.0, 2000.0), (100.0, 150.0), (False, True)
        ):
            p = replace(table_params, R_load_dc=r_load, V_dc=v_dc)
            drive = _drive(p, staircase, solution_3.angle_set)
            _assert_matches_sequential_loop(p, drive, spc)

    @given(
        k=st.floats(0.05, 0.6),
        r_load=st.floats(5.0, 5000.0),
        staircase=st.booleans(),
        spc=st.sampled_from([512, 1024, 8192]),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_the_sequential_loop_on_random_links(
        self, table_params, solution_3, k, r_load, staircase, spc
    ):
        p = replace(table_params, k=k, R_load_dc=r_load)
        drive = _drive(p, staircase, solution_3.angle_set)
        _assert_matches_sequential_loop(p, drive, spc)

    @pytest.mark.parametrize("spc", [512, 4096, 65536])
    def test_bytes_equal_the_stacked_scan(self, table_params, solution_3, spc):
        # each entry is the same four-term sum in the same order, so storing
        # the propagators state-major changes no bit; the table link and four
        # random ones, square and staircase drive, steady state and a start
        rng = np.random.default_rng(24)
        links = [table_params] + [
            replace(table_params, k=rng.uniform(0.05, 0.6), R_load_dc=rng.uniform(5.0, 500.0),
                    L2=table_params.L2 * rng.uniform(0.5, 2.0),
                    C2=table_params.C2 * rng.uniform(0.8, 1.25),
                    R1=rng.uniform(0.0, 1.0), R2=rng.uniform(0.0, 1.0))
            for _ in range(4)
        ]
        for p, staircase, start in itertools.product(
            links, (False, True), (None, rng.normal(scale=3.0, size=4))
        ):
            drive = _drive(p, staircase, solution_3.angle_set)
            trace = simulate(p, drive, steps_per_cycle=spc, initial_state=start)
            states, v_cycle, rho = _stacked_scan_cycle(p, drive, spc, start)
            assert trace.states.shape == (spc + 1, 4)
            assert trace.states.flags.c_contiguous
            assert trace.states.tobytes() == states.tobytes()
            assert trace.drive.tobytes() == v_cycle.tobytes()
            assert trace.spectral_radius == rho

    @pytest.mark.parametrize("amplitude", [0.0, 100.0, 1.0 / 3.0])
    def test_square_drive_is_plus_then_minus_amplitude(self, amplitude):
        # bit for bit, the sign of zero included: the first half cycle at
        # +amplitude, the second at -amplitude
        spc = 512
        while spc <= transient_sim.MAX_STEPS_PER_CYCLE:
            v, freq = transient_sim._drive_samples(SquareDrive(amplitude, 85e3), spc)
            expected = np.where(np.arange(spc) < spc // 2, amplitude, -amplitude)
            np.testing.assert_array_equal(v, expected)
            np.testing.assert_array_equal(np.signbit(v), np.signbit(expected))
            assert freq == 85e3
            spc *= 2

    def test_zero_drive_stays_zero(self, table_params):
        trace = simulate(table_params, SquareDrive(0.0, 85e3), steps_per_cycle=512)
        assert np.max(np.abs(trace.states)) == 0.0

    def test_matches_hand_coded_rk4_step(self, table_params):
        # every step of a returned cycle is one explicit RK4 step of the
        # equations above, the drive held over the step; the steady-state
        # cycle visits enough of the state space to pin all of Phi and Gamma
        drive = SquareDrive(100.0, 85e3)
        a, b = _tank_equations(table_params, table_params.r_ac)
        for initial in (None, np.array([0.7, -0.3, 25.0, -8.0])):
            trace = simulate(
                table_params, drive, steps_per_cycle=512, initial_state=initial
            )
            dt = trace.dt
            x = trace.states[:-1].T  # (4, 512): the start of each step

            def f(y):
                return a @ y + b[:, None] * trace.drive

            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            manual = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            np.testing.assert_allclose(
                trace.states[1:], manual.T, rtol=1e-12, atol=1e-12
            )

    def test_divergence_detected(self, table_params):
        # absurdly low switching frequency makes the step explicit-unstable
        p = replace(table_params, f_s=100.0)
        with pytest.raises(DivergenceError):
            simulate(p, SquareDrive(100.0, 100.0), steps_per_cycle=512)

    @pytest.mark.parametrize(
        "initial, step", [((1e307, 0.0, 0.0, 0.0), 88), ((-1e308, 0.0, 0.0, 0.0), 9)]
    )
    def test_an_overflowing_start_names_the_first_non_finite_step(
        self, table_params, initial, step
    ):
        # the propagator is finite and the start is; the states from it
        # overflow at the step that the sequential loop above also finds
        # first, and no RuntimeWarning reaches the caller
        drive, spc = SquareDrive(100.0, 85e3), 4096
        v, freq = transient_sim._drive_samples(drive, spc)
        with np.errstate(over="ignore"):
            states, _ = _sequential_cycle(
                table_params, v, 1.0 / (freq * spc), table_params.r_ac, initial
            )
        assert int(np.argmin(np.isfinite(states).all(axis=1))) == step
        with pytest.raises(DivergenceError, match=rf"^state not finite at step {step}$"):
            simulate(table_params, drive, steps_per_cycle=spc, initial_state=initial)

    @pytest.mark.parametrize("v_dc", [1e9, 1e15])
    def test_a_link_at_the_top_of_the_magnitude_domain_matches_fha(self, table_params, v_dc):
        # the capacitor voltages peak near 4.26 V_dc, so about 4.3e15 V at
        # the top of the domain: finite, and the link is as stable as at 100 V
        p = replace(table_params, V_dc=v_dc)
        trace = simulate(p, SquareDrive(v_dc, 85e3))
        assert np.max(np.abs(trace.states[:, 2])) == pytest.approx(4.26 * v_dc, rel=0.01)
        metrics = steady_state_metrics(trace, p)
        fha = fha_solve(p)
        assert abs(metrics.P_out - fha.P_out) / fha.P_out < 0.05

    def test_lossless_energy_conservation(self, table_params):
        # eleven free cycles, each started from the last state of the one before;
        # the least load of the magnitude domain, 1e-15 ohm, is lossless to
        # rounding (the energy drifts by 8e-13)
        p = replace(table_params, R_load_dc=1e-15)

        def energy(x):
            i1, i2, vc1, vc2 = x
            return (
                0.5 * p.L1 * i1**2
                + 0.5 * p.L2 * i2**2
                + p.mutual * i1 * i2
                + 0.5 * p.C1 * vc1**2
                + 0.5 * p.C2 * vc2**2
            )

        state = np.array([2.0, -1.0, 100.0, 40.0])
        e = [energy(state)]
        for _ in range(11):
            trace = simulate(
                p,
                SquareDrive(0.0, 85e3),
                steps_per_cycle=2048,
                initial_state=state,
            )
            state = trace.states[-1]
            e.append(energy(state))
        e = np.array(e)
        drift = np.abs(e - e[0]) / e[0]
        assert np.max(drift) < 1e-6

    def test_stepped_drive_snap_error(self, table_params, solution_3):
        # each step holds the staircase's exact mean over it: its level,
        # except on the at most one step per edge (3 layers x 4) that holds one
        w = synth(solution_3.angle_set, 100.0, 85e3)
        trace = simulate(table_params, w, steps_per_cycle=1024)
        np.testing.assert_array_equal(trace.drive, interval_mean_samples(w, 1024))
        levels = {-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0}
        assert sum(v not in levels for v in trace.drive) <= 12

    @pytest.mark.parametrize(
        "spc, degrees, snapped",
        [
            (512, (0.2, 30.0, 30.2, 70.0), (0, 43, 43, 100)),
            (4096, (0.03, 45.01, 45.03, 80.0), (0, 512, 512, 910)),
        ],
    )
    def test_stepped_drive_switches_at_snapped_steps(
        self, table_params, spc, degrees, snapped
    ):
        # r_i = round(theta_i * spc / 2pi) is the step boundary nearest edge
        # i, so the edge lies in step r_i - 1 or r_i. Layer i is +1 on the
        # steps wholly inside [theta_i, pi - theta_i] and -1 on those inside
        # [pi + theta_i, 2 pi - theta_i]; a step that holds no edge holds that
        # level exactly, and one that holds an edge its mean
        steps = [round(math.radians(d) * spc / (2 * math.pi)) for d in degrees]
        assert tuple(steps) == snapped
        w = synth(AngleSet.from_degrees(degrees), 100.0, 85e3)
        trace = simulate(table_params, w, steps_per_cycle=spc)
        np.testing.assert_array_equal(trace.drive, interval_mean_samples(w, spc))
        grid = 2 * math.pi / spc
        lo, hi = np.arange(spc) * grid, np.arange(1, spc + 1) * grid
        expected = np.zeros(spc)
        holding = set()
        for t, r in zip(w.angle_set.angles, snapped):
            assert math.floor(t / grid) in (r - 1, r)
            expected += 100.0 * ((lo >= t) & (hi <= math.pi - t))
            expected -= 100.0 * ((lo >= math.pi + t) & (hi <= 2 * math.pi - t))
            edges = (t, math.pi - t, math.pi + t, 2 * math.pi - t)
            holding.update(math.floor(e / grid) for e in edges)
        plain = ~np.isin(np.arange(spc), list(holding))
        np.testing.assert_array_equal(trace.drive[plain], expected[plain])

    def test_trace_csv(self, table_params, tmp_path):
        trace = simulate(table_params, SquareDrive(100.0, 85e3), steps_per_cycle=512)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,v_drive_V,i1_A,i2_A,vC1_V,vC2_V"
        assert len(lines) == 514

    @pytest.mark.parametrize("staircase", [False, True])
    def test_trace_csv_bytes_equal_the_row_loop(
        self, table_params, solution_3, tmp_path, staircase
    ):
        # the per-row csv.writer loop that wrote this file before the rows
        # went through one writer
        drive = _drive(table_params, staircase, solution_3.angle_set)
        trace = simulate(table_params, drive, steps_per_cycle=512)
        reference = tmp_path / "reference.csv"
        drive_column = np.append(trace.drive, trace.drive[0])
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "v_drive_V", "i1_A", "i2_A", "vC1_V", "vC2_V"])
            for s, row in enumerate(trace.states):
                writer.writerow(
                    [repr(s * trace.dt), repr(float(drive_column[s]))]
                    + [repr(float(x)) for x in row]
                )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert path.read_bytes() == reference.read_bytes()


@pytest.fixture(scope="module")
def table_trace(table_params):
    return simulate(table_params, SquareDrive(100.0, 85e3))


class TestSteadyState:
    def test_power_against_fha_and_bench_band(self, table_params, table_trace):
        metrics = steady_state_metrics(table_trace, table_params)
        fha = fha_solve(table_params)
        assert abs(metrics.P_out - fha.P_out) / fha.P_out < 0.05
        assert 180.0 <= metrics.P_out <= 250.0

    def test_high_input_band(self, table_params):
        p = replace(table_params, V_dc=150.0)
        trace = simulate(p, SquareDrive(150.0, 85e3))
        metrics = steady_state_metrics(trace, p)
        assert 410.0 <= metrics.P_out <= 560.0

    def test_zvs_time_domain(self, table_params, table_trace):
        metrics = steady_state_metrics(table_trace, table_params)
        assert metrics.zvs is True

    def test_step_halving_stability(self, table_params, table_trace):
        fine = simulate(table_params, SquareDrive(100.0, 85e3), steps_per_cycle=8192)
        p_coarse = steady_state_metrics(table_trace, table_params).P_out
        p_fine = steady_state_metrics(fine, table_params).P_out
        assert abs(p_fine - p_coarse) / p_fine < 1e-3

    def test_fourth_order_convergence(self, table_params):
        drive = SquareDrive(100.0, 85e3)
        powers = {
            spc: steady_state_metrics(
                simulate(table_params, drive, steps_per_cycle=spc),
                table_params,
            ).P_out
            for spc in (512, 1024, 8192)
        }
        err_512 = abs(powers[512] - powers[8192])
        err_1024 = abs(powers[1024] - powers[8192])
        assert err_512 / err_1024 >= 8.0

    def test_energy_balance(self, table_params, table_trace):
        res = energy_balance_residual(table_trace, table_params, table_params.r_ac)
        assert res < 1e-6

    def test_energy_balance_is_a_python_float(self, table_params, table_trace):
        # a numpy scalar prints as np.float64(...) in the text reports
        res = energy_balance_residual(table_trace, table_params, table_params.r_ac)
        assert type(res) is float

    def test_energy_balance_rejects_another_load(self, table_params, table_trace):
        # a load other than the one the trace was integrated with would give
        # a residual of 0.5 for a correct trace
        with pytest.raises(ValidationError, match="r_ac"):
            energy_balance_residual(table_trace, table_params, 2 * table_trace.r_ac)

    def test_i1_fundamental_matches_fha(self, table_params, table_trace):
        spc = table_trace.steps_per_cycle
        i1 = table_trace.states[-spc - 1 : -1, 0]
        phase = 2 * math.pi * np.arange(spc) / spc
        amp = math.hypot(
            2 * np.mean(i1 * np.sin(phase)), 2 * np.mean(i1 * np.cos(phase))
        )
        fha = fha_solve(table_params)
        assert amp / math.sqrt(2) == pytest.approx(abs(fha.I1), rel=0.02)


def _staircase_harmonic_p_out(params, theta, step_voltage, f1, n_max=200_001):
    # the tank is linear, so its steady state under the staircase is the sum
    # of its odd harmonics b_n through the two meshes at n*w; the terms of
    # P_out fall as n^-4
    n = np.arange(1, n_max + 1, 2)
    b = 4.0 * step_voltage / (n * math.pi) * np.cos(np.outer(n, theta)).sum(axis=1)
    w = 2 * math.pi * f1 * n
    z11 = params.R1 + 1j * (w * params.L1 - 1 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1 / (w * params.C2))
    i2_peak = w * params.mutual * b / np.abs(z11 * z22 + (w * params.mutual) ** 2)
    return params.r_ac * np.sum(i2_peak**2) / 2


class TestPeriodicSteadyState:
    def test_slowly_settling_link_is_at_steady_state(self, table_params):
        # 2000 ohm DC load: rho(P)^60 = 0.23, so a 60-cycle start-up from rest
        # reads 1144.9 W; 870.0979993 W is the exact steady state from a
        # matrix-exponential shooting made apart from this package
        p = replace(table_params, R_load_dc=2000.0)
        trace = simulate(p, SquareDrive(100.0, 85e3))
        metrics = steady_state_metrics(trace, p)
        assert metrics.P_out == pytest.approx(870.0979993, rel=1e-6)

    @pytest.mark.parametrize(
        "r_load, rho", [(50.0, 0.6905984), (2000.0, 0.9755444)]
    )
    def test_spectral_radius_is_the_decay_per_cycle(self, table_params, r_load, rho):
        # the exact one-cycle propagator is exp(A T); its spectral radius is
        # exp(max Re lambda(A) T), which RK4 at 4096 steps matches closely
        p = replace(table_params, R_load_dc=r_load)
        exact = math.exp(
            np.max(np.linalg.eigvals(_tank_equations(p, p.r_ac)[0]).real) / p.f_s
        )
        assert exact == pytest.approx(rho, rel=1e-6)
        trace = simulate(p, SquareDrive(100.0, 85e3))
        assert trace.spectral_radius == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("r_load", [5.0, 50.0, 2000.0])
    @pytest.mark.parametrize(
        "angles, rel",
        [
            (tuple(r * 2 * math.pi / 4096 for r in (100, 300, 900)), 1e-9),
            (tuple(math.radians(d) for d in (11.99, 41.93, 85.67)), (2 * math.pi / 4096) ** 2),
        ],
        ids=["on-grid", "off-grid"],
    )
    def test_staircase_power_is_the_harmonic_sum_of_the_snapped_staircase(
        self, table_params, angles, rel, r_load
    ):
        # three cells of 100/3 V. On the 4096-step grid each pulse is a whole
        # number of steps wide; off it, each step holds the staircase's mean
        # over the step, which keeps every pulse's area and leaves an error
        # second order in the step (snapping the edges to the nearest step
        # boundary read 2.2e-4 here)
        p = replace(table_params, R_load_dc=r_load)
        w = synth(AngleSet(angles), 100.0 / 3, 85e3)
        metrics = steady_state_metrics(simulate(p, w, steps_per_cycle=4096), p)
        expected = _staircase_harmonic_p_out(p, np.array(angles), 100.0 / 3, 85e3)
        assert metrics.P_out == pytest.approx(expected, rel=rel, abs=0)

    def test_no_steady_state_without_loss(self, table_params):
        # a lossless tank never forgets its start: at the least load of the
        # magnitude domain, 1e-15 ohm, rho(P) rounds to >= 1
        lossless = replace(table_params, R_load_dc=1e-15)
        with pytest.raises(DivergenceError, match="spectral radius"):
            simulate(lossless, SquareDrive(100.0, 85e3))

    def test_metrics_use_the_simulated_load(self, table_params):
        # lossless coils: at steady state the load takes all the input power,
        # which holds only if P_out uses the r_ac the tank was integrated with,
        # not the r_ac of the params the metrics are given
        doubled = replace(table_params, R_load_dc=2.0 * table_params.R_load_dc)
        trace = simulate(doubled, SquareDrive(100.0, 85e3))
        assert trace.r_ac == doubled.r_ac
        metrics = steady_state_metrics(trace, table_params)
        assert metrics.P_out == pytest.approx(metrics.P_in_fundamental_cycle, rel=1e-3)
