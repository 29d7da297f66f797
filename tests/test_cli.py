import json

import pytest

from shewpt.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_single_order(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["--out-dir", str(tmp_path), "solve", "--harmonics", "3", "--init", "25"],
        )
        assert code == 0
        assert "30.0000" in out
        report = json.loads((tmp_path / "she_solution.json").read_text())
        assert report["solutions"][0]["residual_norm"] < 1e-12
        assert "converged" not in report["solutions"][0]
        assert report["solutions"][0]["angles_deg"][0] == pytest.approx(30.0)
        assert (tmp_path / "she_solution_0.csv").exists()
        assert (tmp_path / "she_solution.json.meta.json").exists()

    def test_multistart(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7", "--multistart"],
        )
        assert code == 0
        report = json.loads((tmp_path / "she_solution.json").read_text())
        assert len(report["solutions"]) >= 2

    def test_invalid_harmonics_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["--out-dir", str(tmp_path), "solve", "--harmonics", "2,4", "--init", "10,20"],
        )
        assert code == 2
        assert "validation error" in err

    def test_bad_tolerance_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7",
                "--init", "11,41,85", "--tol", "0",
            ],
        )
        assert code == 2

    def test_iteration_starved_exit_3(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7",
                "--init", "11,41,85", "--max-iter", "1",
            ],
        )
        assert code == 3
        assert "solver failure" in err

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHEWPT_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, ["solve", "--harmonics", "3", "--init", "25"])
        assert code == 0
        assert (tmp_path / "she_solution.json").exists()


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        argv = [
            "--out-dir", str(tmp_path), "synth",
            "--angles-deg", "11.99,41.93,85.67", "--step-voltage", "500",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "peak_V: 1500.0" in out
        first = (tmp_path / "waveform.csv").read_bytes()
        assert (tmp_path / "waveform.svg").read_text().startswith("<svg")
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert (tmp_path / "waveform.csv").read_bytes() == first


class TestSpectrum:
    def test_sine_selftest(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["--out-dir", str(tmp_path), "spectrum", "--sine-selftest"]
        )
        assert code == 0
        value = float(out.split("selftest_thd:")[1].strip())
        assert value < 1e-9

    def test_waveform_spectrum(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "spectrum",
                "--angles-deg", "11.991979,41.927883,85.674771",
                "--step-voltage", "500", "--eliminated", "3,5,7",
            ],
        )
        assert code == 0
        report = json.loads((tmp_path / "thd_report.json").read_text())
        assert report["thd_first_21"] == pytest.approx(0.1514, abs=0.01)
        assert report["eliminated_orders_max_relative"] < 1e-6
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,f_Hz,amp_V,rel_to_fund"

    def test_missing_angles_exit_2(self, tmp_path, capsys):
        code, _, err = run(capsys, ["--out-dir", str(tmp_path), "spectrum"])
        assert code == 2


class TestWpt:
    def test_default_config_fha(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["--out-dir", str(tmp_path), "wpt"])
        assert code == 0
        report = json.loads((tmp_path / "wpt_report.json").read_text())
        assert report["outputs"]["fha"]["P_out_W"] == pytest.approx(201.98, abs=0.01)

    def test_uncoupled_config_zero_power(self, tmp_path, capsys):
        cfg = tmp_path / "link.json"
        cfg.write_text(
            json.dumps(
                {
                    "L1_H": 245e-6, "C1_F": 14e-9, "k": 0.0,
                    "R_load_ohm": 50.0, "V_dc_V": 100.0, "f_s_Hz": 85e3,
                }
            )
        )
        code, _, _ = run(
            capsys, ["--out-dir", str(tmp_path), "wpt", "--config", str(cfg)]
        )
        assert code == 0
        report = json.loads((tmp_path / "wpt_report.json").read_text())
        assert report["outputs"]["fha"]["P_out_W"] == pytest.approx(0.0, abs=1e-12)

    def test_transient_mode(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "wpt", "--mode", "transient",
                "--steps-per-cycle", "1024",
            ],
        )
        assert code == 0
        assert "[PASS]" in out
        assert (tmp_path / "transient_trace.csv").exists()
        transient = json.loads((tmp_path / "wpt_report.json").read_text())["outputs"][
            "transient"
        ]
        assert transient["spectral_radius"] == pytest.approx(0.6905984, rel=1e-6)
        assert transient["angle_snap_error_deg"] == 0.0  # square edges are on the grid
        # the trapezoid error of the balance grows as h^2: 2.5e-6 at 1024 steps
        assert transient["energy_balance_residual"] < 1e-5

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"L1_H": 245e-6}))
        code, _, err = run(
            capsys, ["--out-dir", str(tmp_path), "wpt", "--config", str(cfg)]
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, field",
    [
        (["synth", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--samples", "0"], "samples"),
        (["synth", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--samples", "1"], "samples"),
        (["synth", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--frequency", "inf"], "fundamental_frequency"),
        (["synth", "--angles-deg", "12,42,86", "--step-voltage", "inf"],
         "step_voltage"),
        (["spectrum", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--n-max", "0"], "n_max"),
        (["spectrum", "--sine-selftest", "--n-max", "0"], "n_max"),
        (["wpt", "--config", "{missing}"], "config"),
        (["wpt", "--config", "{not_json}"], "config"),
        (["wpt", "--config", "{text_number}"], "L1_H"),
        (["wpt", "--config", "{list}"], "config"),
        (["solve", "--harmonics", "3,5,7", "--init", "11,41,85",
          "--max-iter", "-3"], "max_iter"),
        (["solve", "--harmonics", "3,5,7", "--multistart",
          "--grid-deg", "0.001"], "grid_step_deg"),
    ],
    ids=[
        "synth-samples-0", "synth-samples-1", "synth-frequency-inf",
        "synth-step-voltage-inf", "spectrum-n-max-0", "selftest-n-max-0",
        "wpt-config-missing", "wpt-config-not-json", "wpt-config-text-number",
        "wpt-config-list", "solve-max-iter-negative", "multistart-over-cost-guard",
    ],
)
def test_outside_input_exits_2_naming_the_field(tmp_path, capsys, argv, field):
    link = {
        "L1_H": 245e-6, "C1_F": 14e-9, "k": 0.309,
        "R_load_ohm": 50.0, "V_dc_V": 100.0, "f_s_Hz": 85e3,
    }
    (tmp_path / "not_json.json").write_text("{L1_H: 245e-6")
    (tmp_path / "text_number.json").write_text(json.dumps(dict(link, L1_H="abc")))
    (tmp_path / "list.json").write_text(json.dumps([link]))
    paths = {
        name: str(tmp_path / f"{name}.json")
        for name in ("missing", "not_json", "text_number", "list")
    }
    argv = [arg.format(**paths) for arg in argv]
    code, _, err = run(capsys, ["--out-dir", str(tmp_path)] + argv)
    assert code == 2
    assert err.startswith("validation error: " + field)


class TestReproduce:
    def test_three_level_case(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["--out-dir", str(tmp_path), "reproduce", "--case", "3level"]
        )
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        report = json.loads((tmp_path / "reproduce_report.json").read_text())
        assert report["all_passed"] is True
