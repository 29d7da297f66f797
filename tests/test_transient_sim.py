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
        with pytest.raises(ValidationError, match="drive"):
            simulate(table_params, object())

    def test_zero_drive_stays_zero(self, table_params):
        trace = simulate(table_params, SquareDrive(0.0, 85e3), steps_per_cycle=512)
        assert np.max(np.abs(trace.states)) == 0.0

    def test_matches_hand_coded_rk4_step(self, table_params):
        # one integrator step against four explicit derivative evaluations
        drive = SquareDrive(100.0, 85e3)
        spc = 512
        trace = simulate(table_params, drive, steps_per_cycle=spc)
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
            table_params, drive, steps_per_cycle=spc, initial_state=TankState(*x)
        )
        np.testing.assert_allclose(restart.states[1], manual, rtol=1e-12, atol=1e-12)

    def test_divergence_detected(self, table_params):
        # absurdly low switching frequency makes the step explicit-unstable
        p = replace(table_params, f_s=100.0)
        with pytest.raises(DivergenceError):
            simulate(p, SquareDrive(100.0, 100.0), steps_per_cycle=512)

    def test_lossless_energy_conservation(self, table_params):
        # eleven free cycles, each started from the last state of the one before
        state = TankState(2.0, -1.0, 100.0, 40.0)
        e = [state.energy(table_params)]
        for _ in range(11):
            trace = simulate(
                table_params,
                SquareDrive(0.0, 85e3),
                steps_per_cycle=2048,
                r_ac=0.0,
                initial_state=state,
            )
            state = TankState(*trace.states[-1])
            e.append(state.energy(table_params))
        e = np.array(e)
        drift = np.abs(e - e[0]) / e[0]
        assert np.max(drift) < 1e-6

    def test_stepped_drive_snap_error(self, table_params, solution_3):
        w = synth(solution_3.angle_set, 100.0, 85e3)
        trace = simulate(table_params, w, steps_per_cycle=1024)
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
        trace = simulate(table_params, w, steps_per_cycle=spc)
        s = np.arange(spc)
        half = spc // 2
        expected = np.zeros(spc)
        for r in snapped:
            expected += 100.0 * ((s >= r) & (s <= half - r) & (s < half))
            expected -= 100.0 * ((s >= half + r) & (s <= spc - r))
        np.testing.assert_array_equal(trace.drive, expected)

    def test_trace_csv(self, table_params, tmp_path):
        trace = simulate(table_params, SquareDrive(100.0, 85e3), steps_per_cycle=512)
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

    def test_i1_fundamental_matches_fha(self, table_params, table_trace):
        spc = table_trace.steps_per_cycle
        i1 = table_trace.states[-spc - 1 : -1, 0]
        phase = 2 * math.pi * np.arange(spc) / spc
        amp = math.hypot(
            2 * np.mean(i1 * np.sin(phase)), 2 * np.mean(i1 * np.cos(phase))
        )
        fha = fha_solve(table_params)
        assert amp / math.sqrt(2) == pytest.approx(abs(fha.I1), rel=0.02)


def _state_matrix(params, r_ac):
    # the mesh equations of the module docstring, written out apart from it
    m = params.mutual
    l_inv = np.linalg.inv([[params.L1, m], [m, params.L2]])
    a = np.zeros((4, 4))
    a[0:2, 0:2] = -l_inv * [params.R1, params.R2 + r_ac]
    a[0:2, 2:4] = -l_inv
    a[2, 0] = 1.0 / params.C1
    a[3, 1] = 1.0 / params.C2
    return a


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
            np.max(np.linalg.eigvals(_state_matrix(p, p.r_ac)).real) / p.f_s
        )
        assert exact == pytest.approx(rho, rel=1e-6)
        trace = simulate(p, SquareDrive(100.0, 85e3))
        assert trace.spectral_radius == pytest.approx(exact, rel=1e-9)

    def test_no_steady_state_without_loss(self, table_params):
        # a lossless tank never forgets its start: rho(P) rounds to >= 1
        with pytest.raises(DivergenceError, match="spectral radius"):
            simulate(table_params, SquareDrive(100.0, 85e3), r_ac=0.0)

    def test_metrics_use_the_simulated_load(self, table_params):
        # lossless coils: at steady state the load takes all the input power,
        # which holds only if P_out uses the r_ac the tank was integrated with
        r_ac = 2.0 * table_params.r_ac
        trace = simulate(table_params, SquareDrive(100.0, 85e3), r_ac=r_ac)
        assert trace.r_ac == r_ac
        metrics = steady_state_metrics(trace, table_params)
        assert metrics.P_out == pytest.approx(metrics.P_in_fundamental_cycle, rel=1e-3)
