import math
from dataclasses import replace

import numpy as np
import pytest

from shewpt import (
    AngleSet,
    DivergenceError,
    SquareDrive,
    TankState,
    ValidationError,
    derivatives,
    fha_solve,
    settle_detector,
    simulate,
    steady_state_metrics,
    energy_balance_residual,
    synth,
)


class TestDerivatives:
    def test_zero_state_zero_drive(self, table_params):
        d = derivatives(TankState(0, 0, 0, 0), 0.0, table_params, 40.0)
        np.testing.assert_array_equal(d, np.zeros(4))

    def test_nearly_uncoupled_primary(self, table_params):
        p = replace(table_params, k=1e-12)
        d = derivatives(TankState(0, 0, 0, 0), 100.0, p, 40.0)
        assert d[0] == pytest.approx(100.0 / p.L1, rel=1e-9)
        assert abs(d[1]) < 1e-3  # coupling path carries almost nothing

    def test_capacitor_equations(self, table_params):
        d = derivatives(TankState(2.0, -1.5, 30.0, 10.0), 0.0, table_params, 40.0)
        assert d[2] == pytest.approx(2.0 / table_params.C1, rel=1e-12)
        assert d[3] == pytest.approx(-1.5 / table_params.C2, rel=1e-12)

    def test_energy_rate_identity(self, table_params):
        # dE/dt must equal injected power minus dissipation
        p = replace(table_params, R1=0.4, R2=0.7)
        r_ac = 40.5
        state = TankState(3.1, -2.2, 120.0, -45.0)
        v = 250.0
        d = derivatives(state, v, p, r_ac)
        m = p.mutual
        de_dt = (
            (p.L1 * state.i1 + m * state.i2) * d[0]
            + (p.L2 * state.i2 + m * state.i1) * d[1]
            + p.C1 * state.vC1 * d[2]
            + p.C2 * state.vC2 * d[3]
        )
        expected = (
            v * state.i1
            - p.R1 * state.i1**2
            - (p.R2 + r_ac) * state.i2**2
        )
        assert de_dt == pytest.approx(expected, rel=1e-12)


class TestSimulate:
    def test_validation(self, table_params):
        drive = SquareDrive(100.0, 85e3)
        with pytest.raises(ValidationError, match="steps_per_cycle"):
            simulate(table_params, drive, steps_per_cycle=1000)
        with pytest.raises(ValidationError, match="steps_per_cycle"):
            simulate(table_params, drive, steps_per_cycle=256)
        with pytest.raises(ValidationError, match="n_cycles"):
            simulate(table_params, drive, n_cycles=0)
        with pytest.raises(ValidationError, match="drive"):
            simulate(table_params, object())

    def test_zero_drive_stays_zero(self, table_params):
        trace = simulate(
            table_params, SquareDrive(0.0, 85e3), steps_per_cycle=512, n_cycles=3
        )
        assert np.max(np.abs(trace.states)) == 0.0

    def test_matches_hand_coded_rk4_step(self, table_params):
        # one integrator step against four explicit derivative evaluations
        drive = SquareDrive(100.0, 85e3)
        spc = 512
        trace = simulate(table_params, drive, steps_per_cycle=spc, n_cycles=1)
        dt = trace.dt
        r_ac = table_params.r_ac
        x = np.array([0.7, -0.3, 25.0, -8.0])
        v = 100.0

        def f(y):
            return derivatives(TankState(*y), v, table_params, r_ac)

        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        manual = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)

        restart = simulate(
            table_params,
            drive,
            steps_per_cycle=spc,
            n_cycles=1,
            initial_state=TankState(*x),
        )
        np.testing.assert_allclose(restart.states[1], manual, rtol=1e-12, atol=1e-12)

    def test_divergence_detected(self, table_params):
        # absurdly low switching frequency makes the step explicit-unstable
        p = replace(table_params, f_s=100.0)
        with pytest.raises(DivergenceError):
            simulate(p, SquareDrive(100.0, 100.0), steps_per_cycle=512, n_cycles=2)

    def test_lossless_energy_conservation(self, table_params):
        trace = simulate(
            table_params,
            SquareDrive(0.0, 85e3),
            steps_per_cycle=2048,
            n_cycles=11,
            r_ac=0.0,
            initial_state=TankState(2.0, -1.0, 100.0, 40.0),
        )
        e = np.array(
            [TankState(*row).energy(table_params) for row in trace.states[:: 2048]]
        )
        drift = np.abs(e - e[0]) / e[0]
        assert np.max(drift) < 1e-6

    def test_stepped_drive_snap_error(self, table_params, solution_3):
        w = synth(solution_3.angle_set, 100.0, 85e3)
        trace = simulate(table_params, w, steps_per_cycle=1024, n_cycles=3)
        assert trace.angle_snap_error_rad <= math.pi / 1024
        levels = np.unique(trace.drive)
        assert set(levels) == {-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0}

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
        # layer i is +1 on steps [r_i, spc/2 - r_i] and -1 on
        # [spc/2 + r_i, spc - r_i], r_i = round(theta_i * spc / 2pi); a layer
        # snapped to step 0 is the full square wave, + on the first half
        steps = [round(math.radians(d) * spc / (2 * math.pi)) for d in degrees]
        assert tuple(steps) == snapped
        w = synth(AngleSet.from_degrees(degrees), 100.0, 85e3)
        trace = simulate(table_params, w, steps_per_cycle=spc, n_cycles=1)
        s = np.arange(spc)
        half = spc // 2
        expected = np.zeros(spc)
        for r in snapped:
            expected += 100.0 * ((s >= r) & (s <= half - r) & (s < half))
            expected -= 100.0 * ((s >= half + r) & (s <= spc - r))
        np.testing.assert_array_equal(trace.drive, expected)

    def test_trace_csv(self, table_params, tmp_path):
        trace = simulate(
            table_params, SquareDrive(100.0, 85e3), steps_per_cycle=512, n_cycles=1
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,v_drive_V,i1_A,i2_A,vC1_V,vC2_V"
        assert len(lines) == 514


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
                simulate(table_params, drive, steps_per_cycle=spc, n_cycles=120),
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

    def test_i1_fundamental_matches_fha(self, table_params, table_trace):
        spc = table_trace.steps_per_cycle
        i1 = table_trace.states[-spc - 1 : -1, 0]
        phase = 2 * math.pi * np.arange(spc) / spc
        amp = math.hypot(
            2 * np.mean(i1 * np.sin(phase)), 2 * np.mean(i1 * np.cos(phase))
        )
        fha = fha_solve(table_params)
        assert amp / math.sqrt(2) == pytest.approx(abs(fha.I1), rel=0.02)


class TestSettleDetector:
    def test_zero_drive_settles_immediately(self, table_params):
        trace = simulate(
            table_params, SquareDrive(0.0, 85e3), steps_per_cycle=512, n_cycles=4
        )
        assert settle_detector(trace, table_params.r_ac) == 1

    def test_table_link_settles(self, table_params):
        trace = simulate(table_params, SquareDrive(100.0, 85e3))
        cycle = settle_detector(trace, table_params.r_ac)
        assert cycle is not None
        assert cycle <= 60

    def test_detuned_drive_settles_later(self, table_params):
        p = replace(table_params, f_s=42.5e3)
        trace = simulate(
            p, SquareDrive(100.0, 42.5e3), steps_per_cycle=2048, n_cycles=30
        )
        cycle = settle_detector(trace, p.r_ac)
        assert cycle is not None and cycle > 1

    def test_too_short_trace_rejected(self, table_params):
        trace = simulate(
            table_params, SquareDrive(100.0, 85e3), steps_per_cycle=512, n_cycles=2
        )
        with pytest.raises(ValidationError, match="n_cycles"):
            settle_detector(trace, table_params.r_ac)

