import cmath
import json
import math
from dataclasses import replace

import pytest

from shewpt import (
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
    WptLinkParams,
    drive_fundamental_rms,
    equivalent_ac_load,
    fha_solve,
    power_scaling_check,
    resonant_frequency,
)


def scalar_oracle_p_out(params):
    """Reflected-impedance solution, independent of the matrix solver."""
    w = 2 * math.pi * params.f_s
    m = params.mutual
    z11 = params.R1 + 1j * (w * params.L1 - 1 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1 / (w * params.C2))
    z_ref = (w * m) ** 2 / z22
    i1 = drive_fundamental_rms(params.V_dc) / (z11 + z_ref)
    i2 = 1j * w * m * i1 / z22
    return abs(i2) ** 2 * params.r_ac


class TestHelpers:
    def test_mutual_inductance_value(self, table_params):
        assert table_params.mutual == pytest.approx(75.705e-6, rel=1e-9)

    def test_mutual_inductance_linear_in_k(self, table_params):
        assert replace(table_params, k=0.6).mutual == pytest.approx(
            2 * replace(table_params, k=0.3).mutual
        )

    def test_mutual_inductance_rejects_unit_coupling(self, table_params):
        # [0, 1) is the one range check: k = 0 is the uncoupled limit
        with pytest.raises(ValidationError, match="k"):
            replace(table_params, k=1.0)
        assert replace(table_params, k=0.0).mutual == 0.0

    def test_resonant_frequency_value(self):
        assert resonant_frequency(245e-6, 14e-9) == pytest.approx(85935.59, abs=0.01)

    def test_resonant_frequency_inverse(self):
        # capacitance that tunes 245 uH exactly to the switching frequency
        c = 1.0 / (245e-6 * (2 * math.pi * 85e3) ** 2)
        assert c == pytest.approx(14.31e-9, abs=0.01e-9)
        assert resonant_frequency(245e-6, c) == pytest.approx(85e3, rel=1e-12)

    def test_equivalent_ac_load(self):
        assert equivalent_ac_load(50.0) == pytest.approx(40.5285, abs=1e-4)
        assert equivalent_ac_load(math.pi**2 / 8) == pytest.approx(1.0, rel=1e-12)

    def test_drive_fundamental_rms(self):
        assert drive_fundamental_rms(100.0) == pytest.approx(90.0316, abs=1e-4)
        assert drive_fundamental_rms(150.0) == pytest.approx(135.0474, abs=1e-4)
        assert drive_fundamental_rms(0.0) == 0.0

    def test_helper_validation(self):
        with pytest.raises(ValidationError):
            resonant_frequency(0.0, 14e-9)
        with pytest.raises(ValidationError):
            equivalent_ac_load(0.0)
        with pytest.raises(ValidationError):
            drive_fundamental_rms(-1.0)


class TestParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="L1"):
            WptLinkParams(
                L1=0.0, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3,
                R_load_dc=50.0, V_dc=100.0, f_s=85e3,
            )
        with pytest.raises(ValidationError, match="k"):
            WptLinkParams(
                L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=1.0,
                R_load_dc=50.0, V_dc=100.0, f_s=85e3,
            )
        with pytest.raises(ValidationError, match="R1"):
            WptLinkParams(
                L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3,
                R_load_dc=50.0, V_dc=100.0, f_s=85e3, R1=-0.1,
            )

    def test_from_config_defaults_secondary(self):
        params = WptLinkParams.from_config(
            {
                "L1_H": 245e-6,
                "C1_F": 14e-9,
                "k": 0.309,
                "R_load_ohm": 50.0,
                "V_dc_V": 100.0,
                "f_s_Hz": 85e3,
            }
        )
        assert params.L2 == params.L1
        assert params.C2 == params.C1
        assert params.R1 == 0.0

    def test_from_config_missing_key(self):
        with pytest.raises(ValidationError, match="f_s_Hz"):
            WptLinkParams.from_config(
                {"L1_H": 245e-6, "C1_F": 14e-9, "k": 0.3,
                 "R_load_ohm": 50.0, "V_dc_V": 100.0}
            )

    def test_from_json(self, tmp_path, table_params):
        path = tmp_path / "link.json"
        path.write_text(
            json.dumps(
                {
                    "L1_H": 245e-6,
                    "C1_F": 14e-9,
                    "k": 0.309,
                    "R_load_ohm": 50.0,
                    "V_dc_V": 100.0,
                    "f_s_Hz": 85e3,
                }
            )
        )
        assert WptLinkParams.from_json(path) == table_params


class TestFhaSolve:
    def test_reference_powers(self, table_params):
        sol_100 = fha_solve(table_params)
        sol_150 = fha_solve(replace(table_params, V_dc=150.0))
        assert sol_100.P_out == pytest.approx(201.98, abs=0.01)
        assert sol_150.P_out == pytest.approx(454.46, abs=0.01)
        # bench measurements bound the model to within 15 percent
        assert abs(sol_100.P_out - 215.0) / 215.0 < 0.15
        assert abs(sol_150.P_out - 489.0) / 489.0 < 0.15

    def test_matches_scalar_oracle(self, table_params):
        for p in (
            table_params,
            replace(table_params, k=0.15, V_dc=120.0),
            replace(table_params, f_s=80e3, R1=0.3, R2=0.4),
        ):
            assert fha_solve(p).P_out == pytest.approx(
                scalar_oracle_p_out(p), rel=1e-12
            )

    def test_lossless_power_conservation(self, table_params):
        sol = fha_solve(table_params)
        assert sol.P_in == pytest.approx(sol.P_out, rel=1e-10)

    def test_esr_energy_accounting(self, table_params):
        p = replace(table_params, R1=0.5, R2=0.8)
        sol = fha_solve(p)
        budget = sol.P_out + abs(sol.I1) ** 2 * p.R1 + abs(sol.I2) ** 2 * p.R2
        assert abs(sol.P_in - budget) / sol.P_in < 1e-10

    def test_uncoupled_limit(self, table_params):
        sol = fha_solve(replace(table_params, k=0.0))
        assert sol.P_out == pytest.approx(0.0, abs=1e-20)
        assert abs(sol.I2) == pytest.approx(0.0, abs=1e-20)

    def test_load_independent_secondary_current_at_resonance(self, table_params):
        f0 = resonant_frequency(table_params.L1, table_params.C1)
        tuned = replace(table_params, f_s=f0)
        w = 2 * math.pi * f0
        v1 = drive_fundamental_rms(tuned.V_dc)
        expected = v1 / (w * tuned.mutual)
        for load in (25.0, 50.0, 200.0):
            sol = fha_solve(replace(tuned, R_load_dc=load))
            assert abs(sol.I2) == pytest.approx(expected, rel=1e-9)

    def test_input_phase_near_resonance(self, table_params):
        sol = fha_solve(table_params)
        phase = math.degrees(cmath.phase(sol.Z_in))
        assert abs(phase) < 1.0  # operating point sits almost on resonance

    def test_diode_drop_reduces_power(self, table_params):
        base = fha_solve(table_params).P_out
        dropped = fha_solve(replace(table_params, diode_drop=1.4)).P_out
        assert dropped < base
        assert dropped > 0.8 * base

    def test_diode_drop_fixed_point_cap_raises(self, table_params):
        # a drop this large against a light load never settles its phase
        p = replace(table_params, diode_drop=20.0, R_load_dc=2000.0, f_s=60e3)
        with pytest.raises(NonConvergenceError, match="diode"):
            fha_solve(p)

    def test_singular_mesh(self):
        # lossless tank driven exactly at the lower coupled-mode frequency
        # f0 / sqrt(1 + k), where the mesh determinant vanishes
        k = 0.309
        f_split = resonant_frequency(245e-6, 14e-9) / math.sqrt(1.0 + k)
        p = WptLinkParams(
            L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=k,
            R_load_dc=1e-12 * math.pi**2 / 8, V_dc=100.0, f_s=f_split,
        )
        with pytest.raises(SingularMatrixError):
            fha_solve(p)


class TestPowerScaling:
    def test_model_ratio_is_exact_square(self, table_params):
        assert power_scaling_check(table_params, 100.0, 150.0) == pytest.approx(
            2.25, rel=1e-12
        )

    def test_measured_ratio_close_to_model(self, table_params):
        measured = 489.0 / 215.0
        model = power_scaling_check(table_params, 100.0, 150.0)
        assert abs(measured - model) / model < 0.015

    def test_unity(self, table_params):
        assert power_scaling_check(table_params, 120.0, 120.0) == pytest.approx(1.0)

    def test_zero_base_rejected(self, table_params):
        with pytest.raises(ValidationError, match="V_dc_a"):
            power_scaling_check(replace(table_params, k=0.0), 100.0, 150.0)
