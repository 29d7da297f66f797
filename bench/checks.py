"""Checks of a run's outputs against the reference computations in refs.py.

Each check returns (status, message) for one operation: "ok", "failed"
(it raised, exited non-zero, or hit the kept start-up fault of the link
workload) or "wrong" (an output disagrees with its reference).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

import refs


def check_multistart(op, ref):
    orders = tuple(op["orders"])
    if not refs.same_branch_set(op["branches"], ref[orders]):
        return "wrong", f"multistart {orders}: {len(op['branches'])} branches, reference {len(ref[orders])}"
    for b in op["branches"]:
        r = float(np.max(np.abs(refs.she_residual(b, orders))))
        if not r < 1e-10:
            return "wrong", f"multistart {orders}: residual {r:.2e} at {np.degrees(b)}"
    return "ok", None


def check_grid_oracle(op, ms):
    orders = tuple(op["orders"])
    dist = min((float(np.max(np.abs(np.asarray(op["angles"]) - np.asarray(b))))
                for b in ms.get(orders, [])), default=math.inf)
    if dist > math.radians(1.0) * (1 + 1e-9):
        return "wrong", f"grid oracle {orders}: {math.degrees(dist):.3f} deg from every branch"
    return "ok", None


# odd orders summed for the Parseval checks: the tail bound is then about
# 1e-5 of the mean square
PARSEVAL_ORDERS = 99_999
ROUNDING = 1e-12  # relative slack for rounding in sums of up to 5e4 terms


def check_candidate(op, factors):
    theta, v, n_samples = np.asarray(op["angles"]), op["step_voltage"], op["samples"]
    tag = f"candidate {len(theta)}-level N={n_samples}"
    amps = refs.fourier_amplitudes(theta, v, 999)
    a1 = amps[1]
    if n_samples not in factors:
        factors[n_samples] = refs.alias_factor(999, n_samples)
    bound = refs.alias_bound(theta, v, factors[n_samples])
    for name, n_hi in (("thd_21", 21), ("thd_band", 999)):
        ref = math.sqrt(float(np.sum(amps[2 : n_hi + 1] ** 2))) / a1
        tol = refs.thd_error_bound(amps, bound, n_hi)
        if not abs(op[name] - ref) <= tol:
            return "wrong", f"{tag}: {name} {op[name]:.9g} vs {ref:.9g} (alias bound {tol:.1e})"
    # Parseval: the time-domain RMS and the closed-form THD against the mean
    # square of the series, which lies in [partial, partial + tail]
    partial, tail = refs.series_mean_square(theta, v, PARSEVAL_ORDERS)
    v1_sq = a1**2 / 2
    slack = ROUNDING * (partial + tail)
    for name, got, lo in (("total RMS^2", op["total_rms"] ** 2, partial),
                          ("closed-form THD^2 * V1^2", op["thd_total"] ** 2 * v1_sq, partial - v1_sq)):
        if not lo - slack <= got <= lo + tail + slack:
            return "wrong", (f"{tag}: {name} {got:.12g} outside the Parseval sum "
                             f"[{lo:.12g}, {lo + tail:.12g}]")
    if not abs(op["fundamental_rms"] ** 2 - v1_sq) <= ROUNDING * v1_sq:
        return "wrong", f"{tag}: fundamental RMS {op['fundamental_rms']} vs {math.sqrt(v1_sq)}"
    gap = float(np.max(np.abs(np.asarray(op["analytic"]) - amps)))
    if not gap <= 1e-9 * a1:
        return "wrong", f"{tag}: analytic spectrum off by {gap:.2e} V"
    if op["orders"]:
        own = max(amps[n] for n in op["orders"]) / a1
        if not (own < 1e-6 and op["eliminated_max_rel"] < 1e-6):
            return "wrong", (f"{tag}: eliminated orders at {own:.1e} (own sums), "
                             f"{op['eliminated_max_rel']:.1e} (thd_report) of the fundamental")
    return "ok", None


def link_tolerance(point, steps_per_cycle) -> float:
    """Allowed |P_transient - P_exact| / P_exact at one operating point.

    ``simulate`` holds the drive over each step, so a staircase edge lands
    up to one step (2 pi / steps) from its true angle. To first order the
    fundamental then moves by sum sin(theta_i) d theta_i / sum cos(theta_i)
    of itself, and the power by twice that. The square wave's edges fall on
    the grid. Both get (2 pi / steps)^2 for the second-order quadrature of
    the cycle means.
    """
    step = 2 * math.pi / steps_per_cycle
    tol = step**2
    if point["drive"] == "staircase":
        theta = np.asarray(point["angles"])
        tol += 2 * step * float(np.sum(np.sin(theta)) / np.sum(np.cos(theta)))
    return tol


def exact_for(point) -> dict:
    r_ac = 8.0 * point["R_load_dc"] / math.pi**2
    if point["drive"] == "square":
        drive = {"kind": "square", "amplitude": point["V_dc"]}
    else:
        drive = {"kind": "staircase", "angles_rad": point["angles"], "step_voltage": point["V_dc"] / 3}
    return refs.exact_steady_state(point, drive, r_ac)


def check_point(op, point):
    tag = f"R_load_dc={point['R_load_dc']:.1f} k={point['k']:.3f} {point['drive']}"
    exact = exact_for(point)
    if not op["energy_balance"] < 1e-6:
        return "wrong", f"{tag}: energy balance residual {op['energy_balance']:.2e}"
    if point["drive"] == "square":
        fha_gap = abs(op["fha_P_out"] - exact["P_out"]) / exact["P_out"]
        if not fha_gap <= 0.01:
            return "wrong", f"{tag}: FHA {fha_gap:.2%} from the exact steady state"
    gap = abs(op["P_out"] - exact["P_out"]) / exact["P_out"]
    tol = link_tolerance(point, op["steps_per_cycle"])
    if not gap <= tol:
        return "failed", (f"{tag}: transient P_out {op['P_out']:.6g} W, steady state "
                          f"{exact['P_out']:.6g} W ({gap:.1e} > {tol:.1e}, rho^60 {exact['rho'] ** 60:.0e})")
    return "ok", None


def check_cli_output(run):
    """The report a CLI command wrote, against the references."""
    sub, out = run["argv"][0], run.get("output")
    if sub == "solve":
        got = [np.radians(s["angles_deg"]) for s in out["solutions"]]
        if not refs.same_branch_set(got, refs.load_branches()[(5, 7, 11)]):
            return "wrong", f"cli solve: {len(got)} branches differ from the reference"
    elif sub == "spectrum":
        theta = np.radians([float(a) for a in run["argv"][2].split(",")])
        v = float(run["argv"][4])
        amps = refs.fourier_amplitudes(theta, v, 999)
        ref21 = math.sqrt(float(np.sum(amps[2:22] ** 2))) / amps[1]
        bound = refs.alias_bound(theta, v, refs.alias_factor(21, 8192))
        if not abs(out["thd_first_21"] - ref21) <= refs.thd_error_bound(amps, bound, 21):
            return "wrong", f"cli spectrum: thd_first_21 {out['thd_first_21']} vs {ref21}"
    elif sub == "wpt":
        table = dict(refs.TABLE_LINK, drive="square")
        exact = exact_for(table)["P_out"]
        p = out["outputs"]["transient"]["P_out_W"]
        if not abs(p - exact) <= link_tolerance(table, 4096) * exact:
            return "wrong", f"cli wpt: transient P_out {p} W vs steady state {exact} W"
    return "ok", None


def check(workload, main):
    """Outcomes of every operation of the run: (attempted, failed notes, wrong notes)."""
    ops = main["ops"]
    if workload == "branches":
        ref = refs.load_branches()
        ms = {tuple(op["orders"]): op["branches"] for op in ops if op["op"] == "multistart"}
        checks = [partial(check_multistart, op, ref) if op["op"] == "multistart"
                  else partial(check_grid_oracle, op, ms) for op in ops]
    elif workload == "screen":
        factors: dict = {}
        checks = [partial(check_candidate, op, factors) for op in ops]
    else:
        points = main["inputs"]["points"]
        checks = [partial(check_point, op, p) for op, p in zip(ops, points)]

    per_pass = [
        ("failed", f"{op['op']}: {op['error']}") if "error" in op else fn()
        for op, fn in zip(ops, checks)
    ]
    # every pass ran the same operations on the same inputs and gave the same
    # outputs (the worker compares them), so the first pass stands for all
    outcomes = per_pass * main["passes"]
    last = len(main["cli_runs"]) - 1
    for r, runs in enumerate(main["cli_runs"]):
        for run in runs:
            if run["exit"] != 0:
                outcomes.append(("failed", f"cli {run['argv'][0]}: exit {run['exit']}: {run['stderr'].strip()}"))
            elif r == last:
                outcomes.append(check_cli_output(run))
            else:
                outcomes.append(("ok", None))
    failed = [m for s, m in outcomes if s == "failed"]
    wrong = [m for s, m in outcomes if s == "wrong"]
    if not main["deterministic"]:
        wrong.append("a later pass gave other outputs than the first")
    return len(outcomes), failed, wrong
