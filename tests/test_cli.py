import csv
import itertools
import json
import re

import numpy as np
import pytest

from shewpt import AngleSet, fha_solve, synth
from shewpt.cli import main
from shewpt import she_solver, spectrum
from shewpt.spectrum import spectrum_to_csv, thd_report, waveform_dft_spectrum
from shewpt.waveform import SteppedWaveform


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
        for idx, sol in enumerate(report["solutions"]):
            # the per-row csv.writer loop that wrote these files before the
            # rows went through one writer; the JSON floats round-trip exactly
            reference = tmp_path / f"reference_{idx}.csv"
            with open(reference, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["theta_index", "theta_deg"])
                for i, deg in enumerate(sol["angles_deg"], start=1):
                    writer.writerow([i, repr(deg)])
            written = (tmp_path / f"she_solution_{idx}.csv").read_bytes()
            assert written == reference.read_bytes()

    def test_invalid_harmonics_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["--out-dir", str(tmp_path), "solve", "--harmonics", "2,4", "--init", "10,20"],
        )
        assert code == 2
        assert "validation error" in err

    def test_bad_tolerance_exit_2(self, tmp_path, capsys):
        # the tolerance and the iteration cap are fixed: argparse rejects
        # --tol and --max-iter as unrecognised arguments
        for option in (["--tol", "0"], ["--max-iter", "1"]):
            with pytest.raises(SystemExit) as info:
                main(["--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7",
                      "--init", "11,41,85", *option])
            assert info.value.code == 2
            assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err

    def test_iteration_starved_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(she_solver, "MAX_ITER", 1)
        code, _, err = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7",
                "--init", "11,41,85",
            ],
        )
        assert code == 3
        assert err == "solver failure: max_iter=1 exceeded (best residual norm 1.628e-03)\n"

    def test_neither_init_nor_multistart_exits_2(self, tmp_path, capsys):
        code, out, err = run(
            capsys, ["--out-dir", str(tmp_path), "solve", "--harmonics", "3,5,7"]
        )
        assert code == 2
        assert out == ""
        assert err == "validation error: init: required unless --multistart is given\n"

    def test_multistart_without_roots_exits_3(self, tmp_path, capsys):
        # the one ascending seed of 17 orders on the 5 degree lattice reaches
        # no root
        code, out, err = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "solve",
                "--harmonics", ",".join(map(str, range(3, 37, 2))), "--multistart",
            ],
        )
        assert code == 3
        assert out == ""
        assert err == "no solutions found by multistart\n"
        assert not (tmp_path / "she_solution.json").exists()

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        # --out-dir is the one way to name the directory: SHEWPT_OUTDIR is
        # ignored, and the default is the working directory
        monkeypatch.setenv("SHEWPT_OUTDIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, ["solve", "--harmonics", "3", "--init", "25"])
        assert code == 0
        assert (tmp_path / "she_solution.json").exists()
        assert not (tmp_path / "env").exists()

    def test_outdir_naming_a_file_exits_2(self, tmp_path, capsys):
        # a FileExistsError traceback (exit 1) before out_dir was checked
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        argv = ["solve", "--harmonics", "3", "--init", "25"]
        code, _, err = run(capsys, ["--out-dir", str(taken)] + argv)
        assert code == 2
        assert err.startswith("validation error: out_dir")
        assert taken.read_text() == "not a directory"


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

    def test_samples_the_waveform_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        sample_at = SteppedWaveform.sample_at

        def counted(self, t):
            calls.append(len(t))
            return sample_at(self, t)

        monkeypatch.setattr(SteppedWaveform, "sample_at", counted)
        argv = [
            "--out-dir", str(tmp_path), "synth",
            "--angles-deg", "11.99,41.93,85.67", "--step-voltage", "500",
        ]
        code, _, _ = run(capsys, argv)
        assert code == 0
        assert calls == [8192]

    @pytest.mark.parametrize("samples", [8192, 65536])
    def test_svg_draws_the_ends_of_each_level_run(self, tmp_path, capsys, samples):
        code, _, _ = run(capsys, [
            "--out-dir", str(tmp_path), "synth", "--angles-deg", "11.99,41.93,85.67",
            "--step-voltage", "500", "--samples", str(samples),
        ])
        assert code == 0
        # the polyline with one vertex per sample, as it was drawn before
        # the interior points of each run of equal v were dropped
        w = synth(AngleSet.from_degrees([11.99, 41.93, 85.67]), 500.0, 85e3)
        t = np.arange(samples) * (w.period / samples)
        v = w.sample_at(t)
        x = 40 + (t - t[0]) / (t[-1] - t[0]) * (800 - 80)
        y = 400 / 2 - v / np.max(np.abs(v)) * (400 / 2 - 40)
        per_sample = [f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y)]
        expected = []
        for _, group in itertools.groupby(zip(v.tolist(), per_sample), key=lambda p: p[0]):
            group = [point for _, point in group]
            expected += [group[0], group[-1]] if len(group) > 1 else group
        svg = (tmp_path / "waveform.svg").read_text()
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1).split(" ")
        assert points == expected
        assert len(points) == 2 * 13  # both ends of the 4K + 1 level runs


class TestSpectrum:
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

    def test_thd_report_uses_the_sample_count(self, tmp_path, capsys):
        angles = (11.991979, 41.927883, 85.674771)
        code, _, _ = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "spectrum",
                "--angles-deg", ",".join(map(str, angles)),
                "--step-voltage", "500", "--eliminated", "3,5,7", "--samples", "65536",
            ],
        )
        assert code == 0
        report = json.loads((tmp_path / "thd_report.json").read_text())
        w = SteppedWaveform(AngleSet.from_degrees(angles), 500.0, 85e3)
        expected = thd_report(w, eliminated_orders=(3, 5, 7), samples_per_period=65536)
        assert report == {
            "thd_total_closed_form": expected.thd_total,
            "thd_first_21": expected.thd_21,
            "thd_band": expected.thd_band,
            "band_total": expected.band_total,
            "eliminated_orders_max_relative": expected.eliminated_orders_max_relative,
        }

    @pytest.mark.parametrize(
        "n_max, samples", [(21, 8192), (99, 2048), (1500, 8192), (2000, 65536)]
    )
    def test_one_dft_serves_both_files(self, tmp_path, capsys, monkeypatch, n_max, samples):
        angles = (11.991979, 41.927883, 85.674771)
        w = SteppedWaveform(AngleSet.from_degrees(angles), 500.0, 85e3)
        expected = thd_report(w, eliminated_orders=(3, 5, 7), samples_per_period=samples)
        spectrum_to_csv(
            waveform_dft_spectrum(w, n_max, samples_per_period=samples),
            tmp_path / "expected.csv",
        )
        calls = []
        interval_means = spectrum.interval_mean_samples

        def counted(w, count):
            calls.append(count)
            return interval_means(w, count)

        monkeypatch.setattr(spectrum, "interval_mean_samples", counted)
        code, _, _ = run(capsys, [
            "--out-dir", str(tmp_path), "spectrum", "--angles-deg", ",".join(map(str, angles)),
            "--step-voltage", "500", "--eliminated", "3,5,7", "--n-max", str(n_max),
            "--samples", str(samples),
        ])
        assert code == 0
        assert calls == [samples]
        assert (tmp_path / "spectrum.csv").read_bytes() == (
            tmp_path / "expected.csv").read_bytes()
        report = json.loads((tmp_path / "thd_report.json").read_text())
        assert (report["thd_first_21"], report["thd_band"]) == (
            expected.thd_21, expected.thd_band)
        assert report["eliminated_orders_max_relative"] == (
            expected.eliminated_orders_max_relative)

    def test_an_eliminated_order_past_the_band_exits_2(self, tmp_path, capsys):
        # a spectrum to 2,000 orders still bounds the eliminated orders by
        # the 999-order THD band
        code, _, err = run(capsys, [
            "--out-dir", str(tmp_path), "spectrum", "--angles-deg", "12,42,86",
            "--step-voltage", "500", "--eliminated", "3,1001", "--n-max", "2000",
            "--samples", "65536",
        ])
        assert code == 2
        assert "n: 1001 outside 1..999" in err

    def test_missing_angles_exit_2(self, tmp_path, capsys):
        # --angles-deg and --step-voltage are required: argparse exits 2
        with pytest.raises(SystemExit) as info:
            main(["--out-dir", str(tmp_path), "spectrum"])
        assert info.value.code == 2


class TestWpt:
    def test_default_config_fha(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["--out-dir", str(tmp_path), "wpt"])
        assert code == 0
        assert "np." not in out
        report = json.loads((tmp_path / "wpt_report.json").read_text())
        assert report["outputs"]["fha"]["P_out_W"] == pytest.approx(201.98, abs=0.01)

    def test_config_file_round_trip(self, tmp_path, capsys, table_params):
        # L2 and C2 default to L1 and C1
        cfg = tmp_path / "link.json"
        cfg.write_text(json.dumps({
            "L1_H": 245e-6, "C1_F": 14e-9, "k": 0.309,
            "R_load_ohm": 50.0, "V_dc_V": 100.0, "f_s_Hz": 85e3,
        }))
        code, _, _ = run(capsys, ["--out-dir", str(tmp_path), "wpt", "--config", str(cfg)])
        assert code == 0
        report = json.loads((tmp_path / "wpt_report.json").read_text())
        assert report["outputs"]["fha"] == fha_solve(table_params).to_dict()

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
        assert set(transient) == {
            "I1_rms_A", "I2_rms_A", "P_out_W", "P_in_W", "zvs",
            "spectral_radius", "energy_balance_residual",
        }
        # the trapezoid error of the balance grows as h^2: 2.5e-6 at 1024 steps
        assert transient["energy_balance_residual"] < 1e-5

    def test_transient_stdout_prints_plain_numbers(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            [
                "--out-dir", str(tmp_path), "wpt", "--mode", "transient",
                "--steps-per-cycle", "512",
            ],
        )
        assert code == 0
        (line,) = [ln for ln in out.splitlines() if ln.startswith("  transient:")]
        assert "energy_balance_residual" in line
        assert "np." not in out

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
        # outside the magnitude domain: it wrote a waveform with a 3e16 V peak
        (["synth", "--angles-deg", "12,42,86", "--step-voltage", "1e16"],
         "step_voltage"),
        (["spectrum", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--n-max", "0"], "n_max"),
        (["spectrum", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--eliminated", "3,x"], "eliminated"),
        (["wpt", "--config", "{missing}"], "config"),
        (["wpt", "--config", "{not_json}"], "config"),
        (["wpt", "--config", "{text_number}"], "L1_H"),
        (["wpt", "--config", "{list}"], "config"),
        (["wpt", "--config", "{typo}"], "R1_Ohm"),
        (["spectrum", "--angles-deg", "12,42,86", "--step-voltage", "500",
          "--samples", "1024"], "samples"),
        (["solve", "--harmonics", ",".join(map(str, range(3, 39, 2))), "--multistart"],
         "orders"),
    ],
    ids=[
        "synth-samples-0", "synth-samples-1", "synth-frequency-inf",
        "synth-step-voltage-inf", "synth-step-voltage-1e16", "spectrum-n-max-0", "spectrum-eliminated-not-int",
        "wpt-config-missing", "wpt-config-not-json", "wpt-config-text-number",
        "wpt-config-list", "wpt-config-unknown-key", "spectrum-samples-below-thd-band",
        "multistart-empty-lattice",
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
    (tmp_path / "typo.json").write_text(json.dumps(dict(link, R1_Ohm=0.5)))
    paths = {
        name: str(tmp_path / f"{name}.json")
        for name in ("missing", "not_json", "text_number", "list", "typo")
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

    @pytest.mark.parametrize("case", ["3level", "4level", "wpt100", "all"])
    def test_rejects_a_bad_step_count_for_every_case(self, tmp_path, capsys, case):
        # the level cases simulate nothing, and took any --steps-per-cycle
        code, _, err = run(
            capsys,
            ["--out-dir", str(tmp_path), "reproduce", "--case", case,
             "--steps-per-cycle", "7"],
        )
        assert code == 2
        assert err.startswith("validation error: steps_per_cycle: 7 must be a power of two")
        assert not (tmp_path / "reproduce_report.json").exists()

    def test_all_cases(self, tmp_path, capsys):
        # every case writes through write_json, which takes Python values only
        code, out, _ = run(capsys, ["--out-dir", str(tmp_path), "reproduce"])
        assert code == 0
        assert "[FAIL]" not in out and "np." not in out
        report = json.loads((tmp_path / "reproduce_report.json").read_text())
        assert [case["command"] for case in report["cases"]] == [
            "reproduce 3level", "reproduce 4level",
            "reproduce wpt100", "reproduce wpt150",
        ]
        assert report["all_passed"] is True
