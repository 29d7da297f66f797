import cmath
import itertools
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from shewpt import (
    SingularMatrixError,
    ValidationError,
    WptLinkParams,
    fha_solve,
    power_scaling_check,
)


def _square_fundamental_rms(v_dc):
    """Fundamental RMS of the full-bridge square wave of amplitude v_dc."""
    return 4.0 * v_dc / (math.pi * math.sqrt(2.0))


def _resonant_frequency(inductance, capacitance):
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * capacitance))


def scalar_oracle_p_out(params):
    """Reflected-impedance solution, independent of the matrix solver."""
    w = 2 * math.pi * params.f_s
    m = params.mutual
    z11 = params.R1 + 1j * (w * params.L1 - 1 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1 / (w * params.C2))
    z_ref = (w * m) ** 2 / z22
    i1 = _square_fundamental_rms(params.V_dc) / (z11 + z_ref)
    i2 = 1j * w * m * i1 / z22
    return abs(i2) ** 2 * params.r_ac


def _mesh_impedances(params):
    w = 2 * math.pi * params.f_s
    z11 = params.R1 + 1j * (w * params.L1 - 1 / (w * params.C1))
    z22 = params.R2 + params.r_ac + 1j * (w * params.L2 - 1 / (w * params.C2))
    return z11, z22, w * params.mutual


def _cramer_mesh_solve(params, v1, v2):
    """Both mesh currents by Cramer's rule, apart from the module's solver."""
    z11, z22, wm = _mesh_impedances(params)
    det = z11 * z22 + wm**2
    return (v1 * z22 - 1j * wm * v2) / det, (z11 * v2 - 1j * wm * v1) / det


def _drop_fundamental_rms(drop):
    return 4.0 * drop / (math.pi * math.sqrt(2.0))


def fixed_point_loop_p_out(params, max_iter=50):
    """The diode-drop phase iteration fha_solve ran before its closed form.

    Returns None where it has not settled after max_iter mesh solves.
    """
    v1 = _square_fundamental_rms(params.V_dc)
    e = _drop_fundamental_rms(params.diode_drop)
    _, i2 = _cramer_mesh_solve(params, v1, 0.0)
    for _ in range(max_iter):
        phase = i2 / abs(i2) if abs(i2) > 0 else 1.0
        _, i2_new = _cramer_mesh_solve(params, v1, -e * phase)
        settled = abs(i2_new - i2) < 1e-12 * max(1.0, abs(i2_new))
        i2 = i2_new
        if settled:
            return abs(i2) ** 2 * params.r_ac
    return None


def _drop_links(count, seed=1):
    # drop 0.01-316 V and R_load_dc 3-5,000 ohm log-uniform, k 0.05-0.6,
    # f_s 50-120 kHz, R1 and R2 0-1 ohm, around the table link's tank
    rng = np.random.default_rng(seed)
    return [
        WptLinkParams(
            L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9,
            k=float(rng.uniform(0.05, 0.6)),
            R_load_dc=float(10 ** rng.uniform(math.log10(3.0), math.log10(5000.0))),
            V_dc=100.0,
            f_s=float(rng.uniform(50e3, 120e3)),
            R1=float(rng.uniform(0.0, 1.0)),
            R2=float(rng.uniform(0.0, 1.0)),
            diode_drop=float(10 ** rng.uniform(-2.0, 2.5)),
        )
        for _ in range(count)
    ]


# the link on which the phase iteration ran out of its 50 mesh solves
FORMER_CAP_CASE = dict(diode_drop=20.0, R_load_dc=2000.0, f_s=60e3)


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

    def test_equivalent_ac_load(self, table_params):
        assert table_params.r_ac == pytest.approx(40.5285, abs=1e-4)
        unit = replace(table_params, R_load_dc=math.pi**2 / 8)
        assert unit.r_ac == pytest.approx(1.0, rel=1e-12)

    def test_drive_fundamental_rms(self, table_params):
        assert abs(fha_solve(table_params).V1) == pytest.approx(90.0316, abs=1e-4)
        high = replace(table_params, V_dc=150.0)
        assert abs(fha_solve(high).V1) == pytest.approx(135.0474, abs=1e-4)


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
        with pytest.raises(ValidationError, match="R_load_dc"):
            WptLinkParams(
                L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3,
                R_load_dc=0.0, V_dc=100.0, f_s=85e3,
            )
        with pytest.raises(ValidationError, match="V_dc"):
            WptLinkParams(
                L1=245e-6, L2=245e-6, C1=14e-9, C2=14e-9, k=0.3,
                R_load_dc=50.0, V_dc=-1.0, f_s=85e3,
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

    @pytest.mark.parametrize("typo", ["R1_Ohm", "diode_drop"])
    def test_from_config_rejects_an_unknown_key(self, typo):
        # a misspelt key would otherwise leave its parameter at the default
        with pytest.raises(ValidationError, match=f"^{typo}: "):
            WptLinkParams.from_config(
                {"L1_H": 245e-6, "C1_F": 14e-9, "k": 0.3, "R_load_ohm": 50.0,
                 "V_dc_V": 100.0, "f_s_Hz": 85e3, typo: 0.5}
            )


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
        f0 = _resonant_frequency(table_params.L1, table_params.C1)
        tuned = replace(table_params, f_s=f0)
        w = 2 * math.pi * f0
        v1 = _square_fundamental_rms(tuned.V_dc)
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

    def test_diode_drop_matches_the_phase_iteration(self):
        settled = 0
        for p in _drop_links(300):
            expected = fixed_point_loop_p_out(p)
            if expected is None:
                continue
            settled += 1
            assert fha_solve(p).P_out == pytest.approx(expected, rel=1e-9, abs=0.0)
        assert settled > 200

    def test_diode_drop_current_is_a_fixed_point(self, table_params):
        # I2 solves the mesh with the counter-emf -e I2/|I2| it implies;
        # the bridge conducts exactly where the coupled emf beats the drop
        links = [replace(table_params, **FORMER_CAP_CASE)] + _drop_links(300)
        conducting = 0
        for p in links:
            sol = fha_solve(p)
            z11, _, wm = _mesh_impedances(p)
            e = _drop_fundamental_rms(p.diode_drop)
            if wm * abs(sol.V1) <= e * abs(z11):
                assert sol.I2 == 0 and sol.P_out == 0
                continue
            conducting += 1
            i1, i2 = _cramer_mesh_solve(p, sol.V1, -e * sol.I2 / abs(sol.I2))
            assert abs(i2 - sol.I2) <= 1e-12 * abs(i2)
            assert abs(i1 - sol.I1) <= 1e-12 * abs(i1)
        assert conducting > 200

    def test_former_cap_case_conducts(self, table_params):
        sol = fha_solve(replace(table_params, **FORMER_CAP_CASE))
        assert abs(sol.I2) == pytest.approx(5.21e-3, abs=0.01e-3)

    @pytest.mark.parametrize(
        "change", [dict(k=0.0, diode_drop=1.4), dict(f_s=60e3, diode_drop=300.0)],
        ids=["uncoupled", "large-drop"],
    )
    def test_blocked_bridge_carries_no_current(self, table_params, change):
        p = replace(table_params, **change)
        w = 2 * math.pi * p.f_s
        z11 = 1j * (w * 245e-6 - 1 / (w * 14e-9))
        sol = fha_solve(p)
        assert sol.I2 == 0 and sol.P_out == 0
        # V1/Z11 up to the rounding of the mesh solve, which is bit for bit
        # the current of the same link uncoupled and without a drop
        assert sol.I1 == pytest.approx(sol.V1 / z11, rel=1e-15)
        assert sol.I1 == fha_solve(replace(p, k=0.0, diode_drop=0.0)).I1

    def test_results_are_python_numbers(self, table_params):
        # numpy scalars here printed as np.float64(...) in the CLI's fha line
        # and would make write_json raise TypeError; exact types, since
        # np.float64 subclasses float
        for p in (
            table_params,
            replace(table_params, V_dc=150.0),
            replace(table_params, k=0.0),
            replace(table_params, R1=0.5, R2=0.3, diode_drop=1.2),
        ):
            sol = fha_solve(p)
            assert [type(x) for x in (sol.I1, sol.I2, sol.V1, sol.Z_in)] == [complex] * 4
            assert [type(x) for x in (sol.P_out, sol.P_in)] == [float, float]
            for key, value in sol.to_dict().items():
                if key == "Z_in_ohm":
                    assert [type(x) for x in value] == [float, float]
                else:
                    assert type(value) in (float, bool), key

    def test_singular_mesh(self):
        # lossless tank driven exactly at the lower coupled-mode frequency
        # f0 / sqrt(1 + k), where the mesh determinant vanishes
        k = 0.309
        f_split = _resonant_frequency(245e-6, 14e-9) / math.sqrt(1.0 + k)
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

    def test_a_diode_drop_lifts_the_ratio_above_the_square(self, table_params):
        # the fixed drop takes a larger share of the power at 100 V than at 150 V
        assert abs(power_scaling_check(table_params, 100.0, 150.0) - 2.25) <= 1e-12
        ratio = power_scaling_check(replace(table_params, diode_drop=1.4), 100.0, 150.0)
        assert ratio > 2.25
        assert ratio == pytest.approx(2.250109554726176, rel=1e-9)

    def test_zero_base_rejected(self, table_params):
        with pytest.raises(ValidationError, match="V_dc_a"):
            power_scaling_check(replace(table_params, k=0.0), 100.0, 150.0)


# The magnitude domain, written out: the tests keep their own literals
LO, HI = 1e-15, 1e15
Z_IN_MESSAGE = r"^params: Z_in = .* is not finite; the mesh solve lost it to rounding$"


def _solves_or_raises_singular_or_z_in(params):
    """'solved' with all six fields finite, or 'singular', or 'z_in' for the
    named Z_in that the mesh solve lost; anything else fails."""
    try:
        solution = fha_solve(params)
    except SingularMatrixError:
        return "singular"
    except ValidationError as exc:
        assert re.match(Z_IN_MESSAGE, str(exc)), str(exc)
        return "z_in"
    for name in ("I1", "I2", "V1", "Z_in", "P_out", "P_in"):
        assert cmath.isfinite(getattr(solution, name)), (params, name)
    return "solved"


class TestMagnitudeDomain:
    pytestmark = pytest.mark.filterwarnings("error")

    def test_every_corner_of_the_box(self):
        # each of L1, L2, C1, C2, R_load_dc, V_dc and f_s at either end, k at 0,
        # at the least value or just below 1, and R1, R2 and the diode drop
        # together at 0 or at either end: 2^7 * 3 * 3 = 1,152 links
        names = ("L1", "L2", "C1", "C2", "R_load_dc", "V_dc", "f_s")
        outcomes = Counter(
            _solves_or_raises_singular_or_z_in(WptLinkParams(
                **dict(zip(names, corner)), k=k, R1=r, R2=r, diode_drop=r))
            for corner in itertools.product((LO, HI), repeat=len(names))
            for k in (0.0, LO, math.nextafter(1.0, 0.0))
            for r in (0.0, LO, HI)
        )
        assert sum(outcomes.values()) == 1152
        assert outcomes["solved"] > 0 and outcomes["singular"] > 0

    def test_a_log_uniform_sample_of_the_box(self):
        # every third link is tuned to resonance on both sides where its
        # capacitances stay inside the box (321 links); R1, R2 and the drop
        # are often 0
        rng = np.random.default_rng(26)
        resonant = 0
        outcomes = Counter()
        for i in range(3000):
            x = 10.0 ** rng.uniform(-15.0, 15.0, size=10)
            params = WptLinkParams(
                L1=x[0], L2=x[1], C1=x[2], C2=x[3], k=rng.uniform(0.0, 1.0),
                R_load_dc=x[4], V_dc=x[5], f_s=x[6],
                R1=x[7] * (rng.random() < 0.7), R2=x[8] * (rng.random() < 0.7),
                diode_drop=x[9] * (rng.random() < 0.5),
            )
            if i % 3 == 0:
                w = 2 * math.pi * params.f_s
                c1, c2 = 1 / (w * w * params.L1), 1 / (w * w * params.L2)
                if LO <= c1 <= HI and LO <= c2 <= HI:
                    params = replace(params, C1=c1, C2=c2)
                    resonant += 1
            outcomes[_solves_or_raises_singular_or_z_in(params)] += 1
        assert resonant > 300
        assert outcomes["solved"] > 0 and outcomes["singular"] > 0

    def test_a_z_in_lost_to_rounding_is_named(self):
        # inside the box, with a mesh of condition number about 12,
        # np.linalg.solve rounds I1 to 0: Z_in = V1 / I1 is (inf+nanj), though
        # Z11 + (wM)^2 / Z22 is finite
        params = WptLinkParams(
            L1=909875198.0017633, L2=353978760823.7453, C1=1.7736670888508296e-11,
            C2=4.5590749283992156e-14, k=0.09706910962272153,
            R_load_dc=1.6472476309138162e-11, V_dc=3.487871803242832e-14,
            f_s=1.2528329425679188, R1=49270425523.25253,
        )
        z11, z22, wm = _mesh_impedances(params)
        assert 1e31 < abs(z11 + wm * wm / z22) < 2e31
        with pytest.raises(ValidationError, match=Z_IN_MESSAGE):
            fha_solve(params)
