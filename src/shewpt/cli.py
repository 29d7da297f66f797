"""Command-line front end.

Subcommands: solve, synth, spectrum, wpt, reproduce. Angles are degrees
at this boundary; config files use SI-unit keys. Exit codes: 0 success,
2 validation error, 3 non-convergence, 4 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import she_solver, spectrum as spec_mod, transient_sim, waveform, wpt_link
from .errors import (
    DivergenceError,
    NonConvergenceError,
    SingularMatrixError,
    UndefinedThdError,
    ValidationError,
)
from .reporting import RunReport, spectrum_svg, waveform_svg, write_json, write_meta_sidecar

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_COMPARISON_FAILED = 4

OUTDIR_ENV = "SHEWPT_OUTDIR"

# measured link of the experimental setup (coil pair at 85 kHz)
TABLE_LINK_CONFIG = {
    "L1_H": 245e-6,
    "L2_H": 245e-6,
    "C1_F": 14e-9,
    "C2_F": 14e-9,
    "k": 0.309,
    "R_load_ohm": 50.0,
    "V_dc_V": 100.0,
    "f_s_Hz": 85e3,
}

REFERENCE_3LEVEL = {
    "init_deg": (11.0, 41.0, 85.0),
    "orders": (3, 5, 7),
    "step_voltage": 500.0,
    "fund_rms": 809.19,
    "fund_rms_tol": 1.0,
    "thd_21": 0.1514,
    "thd_21_tol": 0.010,
    "thd_total": 0.185,
    "thd_total_tol": 0.005,
}

REFERENCE_4LEVEL = {
    "init_deg": (9.0, 26.0, 50.0, 86.0),
    "orders": (3, 5, 7, 9),
    "step_voltage": 375.0,
    "fund_rms": 869.7,
    "fund_rms_tol": 1.5,
    "thd_21": 0.097,
    "thd_21_tol": 0.010,
    "thd_total": 0.128,
    "thd_total_tol": 0.008,
}

REFERENCE_WPT = {"P_100V": 215.0, "P_150V": 489.0, "power_tol_rel": 0.15}

DRIVE_FREQUENCY = 85e3


def _out_dir(args) -> Path:
    path = Path(args.out_dir or os.environ.get(OUTDIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_floats(text: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{name}: {text!r} is not a comma-separated number list") from exc


def _parse_ints(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{name}: {text!r} is not a comma-separated integer list") from exc


def _write_solution_files(solutions, targets, out_dir: Path, stem: str):
    paths = []
    for idx, sol in enumerate(solutions):
        path = out_dir / f"{stem}_{idx}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta_index", "theta_deg"])
            for i, deg in enumerate(sol.angle_set.to_degrees(), start=1):
                writer.writerow([i, repr(deg)])
        paths.append(str(path))
    report = {
        "targets": list(targets.orders),
        "solutions": [
            {
                "angles_deg": list(sol.angle_set.to_degrees()),
                "residual_norm": sol.residual_norm,
                "iterations": sol.iterations,
            }
            for sol in solutions
        ],
    }
    json_path = out_dir / f"{stem}.json"
    write_json(report, json_path)
    write_meta_sidecar(json_path)
    return paths, str(json_path)


def cmd_solve(args) -> int:
    out_dir = _out_dir(args)
    targets = she_solver.HarmonicTargetSet(_parse_ints(args.harmonics, "harmonics"))
    if args.multistart:
        solutions = she_solver.solve_multistart(
            targets, grid_step_deg=args.grid_deg, tol=args.tol
        )
        if not solutions:
            print("no solutions found by multistart", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
    else:
        if args.init is None:
            raise ValidationError("init: required unless --multistart is given")
        init = waveform.AngleSet.from_degrees(_parse_floats(args.init, "init"))
        solutions = [
            she_solver.solve_newton(init, targets, tol=args.tol, max_iter=args.max_iter)
        ]
    _, json_path = _write_solution_files(solutions, targets, out_dir, "she_solution")
    for sol in solutions:
        degs = ", ".join(f"{d:.4f}" for d in sol.angle_set.to_degrees())
        print(f"angles_deg: [{degs}]  residual_norm: {sol.residual_norm:.3e}")
    print(f"report: {json_path}")
    return EXIT_OK


def _build_waveform(args) -> waveform.SteppedWaveform:
    if args.angles_deg is None:
        raise ValidationError("angles_deg: required")
    if args.step_voltage is None:
        raise ValidationError("step_voltage: required")
    angles = waveform.AngleSet.from_degrees(_parse_floats(args.angles_deg, "angles_deg"))
    return waveform.synth(angles, args.step_voltage, args.frequency)


def cmd_synth(args) -> int:
    out_dir = _out_dir(args)
    w = _build_waveform(args)
    csv_path = out_dir / "waveform.csv"
    waveform.waveform_to_csv(w, csv_path, samples=args.samples)
    t = np.arange(args.samples) * (w.period / args.samples)
    svg_path = out_dir / "waveform.svg"
    waveform_svg(t, w.sample_at(t), svg_path, title="multilevel output voltage")
    print(f"waveform: {csv_path}")
    print(f"plot: {svg_path}")
    print(f"peak_V: {w.peak}")
    print(f"fundamental_rms_V: {waveform.fundamental_rms(w.angle_set, w.step_voltage):.4f}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    out_dir = _out_dir(args)
    if args.sine_selftest:
        t = np.arange(8192) / 8192.0
        samples = math.sqrt(2.0) * np.sin(2 * math.pi * t)
        spec = spec_mod.dft_spectrum(samples, 1.0, args.n_max)
        print(f"selftest_thd: {spec_mod.thd(spec, args.n_max):.3e}")
        return EXIT_OK
    w = _build_waveform(args)
    spec = spec_mod.waveform_dft_spectrum(w, args.n_max, samples_per_period=args.samples)
    csv_path = out_dir / "spectrum.csv"
    spec_mod.spectrum_to_csv(spec, csv_path)
    svg_path = out_dir / "spectrum.svg"
    orders = range(1, args.n_max + 1)
    spectrum_svg(
        orders,
        spec.amplitudes[1:] / spec.amplitudes[1],
        svg_path,
        title="harmonic amplitudes relative to fundamental",
    )
    report = spec_mod.thd_report(w, eliminated_orders=args.eliminated or ())
    json_path = out_dir / "thd_report.json"
    write_json(
        {
            "thd_total_closed_form": report.thd_total,
            "thd_first_21": report.thd_21,
            "thd_band": report.thd_band,
            "band_total": report.band_total,
            "eliminated_orders_max_relative": report.eliminated_orders_max_relative,
        },
        json_path,
    )
    write_meta_sidecar(json_path)
    print(f"spectrum: {csv_path}")
    print(f"plot: {svg_path}")
    print(f"thd_report: {json_path}")
    print(f"thd_first_21: {report.thd_21:.4f}")
    print(f"thd_total_closed_form: {report.thd_total:.4f}")
    return EXIT_OK


def _add_transient_check(report: RunReport, params, fha, steps_per_cycle):
    """Simulate the square-driven link and report its steady state against FHA.

    Adds the transient outputs, their diagnostics and the 5% P_out
    comparison to ``report``; returns the trace.
    """
    drive = transient_sim.SquareDrive(amplitude=params.V_dc, frequency=params.f_s)
    trace = transient_sim.simulate(params, drive, steps_per_cycle=steps_per_cycle)
    metrics = transient_sim.steady_state_metrics(trace, params)
    report.outputs["transient"] = dict(
        metrics.to_dict(),
        spectral_radius=trace.spectral_radius,
        angle_snap_error_deg=math.degrees(trace.angle_snap_error_rad),
        energy_balance_residual=transient_sim.energy_balance_residual(
            trace, params, trace.r_ac
        ),
    )
    report.add_comparison(
        "transient P_out vs FHA (5%)", fha.P_out, metrics.P_out, 0.05 * fha.P_out
    )
    return trace


def cmd_wpt(args) -> int:
    out_dir = _out_dir(args)
    if args.config:
        params = wpt_link.WptLinkParams.from_json(args.config)
    else:
        params = wpt_link.WptLinkParams.from_config(TABLE_LINK_CONFIG)
    report = RunReport(command="wpt", inputs={"mode": args.mode, "V_dc_V": params.V_dc})
    fha = wpt_link.fha_solve(params)
    report.outputs["fha"] = fha.to_dict()
    if args.mode == "transient":
        trace = _add_transient_check(report, params, fha, args.steps_per_cycle)
        trace_path = out_dir / "transient_trace.csv"
        trace.to_csv(trace_path)
        report.outputs["trace_csv"] = str(trace_path)
    json_path = out_dir / "wpt_report.json"
    write_json(report.to_dict(), json_path)
    write_meta_sidecar(json_path)
    print(report.format_text())
    print(f"report: {json_path}")
    return EXIT_OK if report.all_passed else EXIT_COMPARISON_FAILED


def _solve_reference(ref):
    targets = she_solver.HarmonicTargetSet(ref["orders"])
    init = waveform.AngleSet.from_degrees(ref["init_deg"])
    return she_solver.solve_newton(init, targets, tol=1e-12)


def _reproduce_level_case(name, ref) -> RunReport:
    sol = _solve_reference(ref)
    w = waveform.synth(sol.angle_set, ref["step_voltage"], DRIVE_FREQUENCY)
    report = RunReport(
        command=f"reproduce {name}",
        inputs={
            "orders": list(ref["orders"]),
            "step_voltage_V": ref["step_voltage"],
            "solved_angles_deg": list(sol.angle_set.to_degrees()),
        },
    )
    fund = waveform.fundamental_rms(sol.angle_set, ref["step_voltage"])
    report.add_comparison("fundamental RMS (V)", ref["fund_rms"], fund, ref["fund_rms_tol"])
    thd_rep = spec_mod.thd_report(w, eliminated_orders=ref["orders"])
    report.add_comparison("THD first 21", ref["thd_21"], thd_rep.thd_21, ref["thd_21_tol"])
    report.add_comparison(
        "THD total (closed form)", ref["thd_total"], thd_rep.thd_total, ref["thd_total_tol"]
    )
    report.add_comparison(
        "eliminated harmonics max relative amplitude",
        0.0,
        thd_rep.eliminated_orders_max_relative,
        1e-6,
    )
    return report


def _reproduce_wpt_case(name, v_dc, p_ref, args) -> RunReport:
    cfg = dict(TABLE_LINK_CONFIG, V_dc_V=v_dc)
    params = wpt_link.WptLinkParams.from_config(cfg)
    fha = wpt_link.fha_solve(params)
    report = RunReport(
        command=f"reproduce {name}",
        inputs={"V_dc_V": v_dc, "f_s_Hz": params.f_s, "k": params.k},
        outputs={"fha": fha.to_dict()},
    )
    report.add_comparison(
        f"FHA P_out vs measured {p_ref} W (15%)",
        p_ref,
        fha.P_out,
        REFERENCE_WPT["power_tol_rel"] * p_ref,
    )
    _add_transient_check(report, params, fha, args.steps_per_cycle)
    if name == "wpt100":
        ratio = wpt_link.power_scaling_check(params, 100.0, 150.0)
        report.add_comparison("model power ratio 150V/100V", 2.25, ratio, 1e-9)
        measured_ratio = REFERENCE_WPT["P_150V"] / REFERENCE_WPT["P_100V"]
        report.add_comparison(
            "measured ratio vs model 2.25 (1.5%)", 2.25, measured_ratio, 0.015 * 2.25
        )
    return report


def cmd_reproduce(args) -> int:
    out_dir = _out_dir(args)
    cases = ["3level", "4level", "wpt100", "wpt150"] if args.case == "all" else [args.case]
    reports = []
    for case in cases:
        if case == "3level":
            reports.append(_reproduce_level_case(case, REFERENCE_3LEVEL))
        elif case == "4level":
            reports.append(_reproduce_level_case(case, REFERENCE_4LEVEL))
        elif case == "wpt100":
            reports.append(_reproduce_wpt_case(case, 100.0, REFERENCE_WPT["P_100V"], args))
        elif case == "wpt150":
            reports.append(_reproduce_wpt_case(case, 150.0, REFERENCE_WPT["P_150V"], args))
        else:
            raise ValidationError(f"case: unknown case {case!r}")
    consolidated = {
        "cases": [rep.to_dict() for rep in reports],
        "all_passed": all(rep.all_passed for rep in reports),
    }
    json_path = out_dir / "reproduce_report.json"
    write_json(consolidated, json_path)
    write_meta_sidecar(json_path)
    for rep in reports:
        print(rep.format_text())
    print(f"report: {json_path}")
    return EXIT_OK if consolidated["all_passed"] else EXIT_COMPARISON_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shewpt",
        description=(
            "Selective-harmonic-elimination angle solving, multilevel waveform "
            "analysis, and series-series WPT link simulation"
        ),
    )
    parser.add_argument("--out-dir", default=None, help=f"output directory (or ${OUTDIR_ENV})")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve a harmonic elimination angle system")
    p.add_argument("--harmonics", required=True, help="orders to eliminate, e.g. 3,5,7")
    p.add_argument("--init", default=None, help="initial angles in degrees, e.g. 11,41,85")
    p.add_argument("--multistart", action="store_true")
    p.add_argument("--grid-deg", type=float, default=5.0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=60)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("synth", help="synthesize a stepped waveform to CSV/SVG")
    p.add_argument("--angles-deg", required=True)
    p.add_argument("--step-voltage", type=float, required=True)
    p.add_argument("--frequency", type=float, default=DRIVE_FREQUENCY)
    p.add_argument("--samples", type=int, default=8192)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("spectrum", help="harmonic spectrum and THD of a waveform")
    p.add_argument("--angles-deg")
    p.add_argument("--step-voltage", type=float)
    p.add_argument("--frequency", type=float, default=DRIVE_FREQUENCY)
    p.add_argument("--n-max", type=int, default=21)
    p.add_argument("--samples", type=int, default=8192)
    p.add_argument("--eliminated", type=lambda s: _parse_ints(s, "eliminated"), default=None)
    p.add_argument("--sine-selftest", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wpt", help="predict the coupled-coil link behaviour")
    p.add_argument("--config", default=None, help="JSON link config (defaults to the measured setup)")
    p.add_argument("--mode", choices=["fha", "transient"], default="fha")
    p.add_argument("--steps-per-cycle", type=int, default=4096)
    p.set_defaults(func=cmd_wpt)

    p = sub.add_parser("reproduce", help="regenerate the headline reference numbers")
    p.add_argument(
        "--case",
        choices=["3level", "4level", "wpt100", "wpt150", "all"],
        default="all",
    )
    p.add_argument("--steps-per-cycle", type=int, default=4096)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, DivergenceError, SingularMatrixError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except UndefinedThdError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
