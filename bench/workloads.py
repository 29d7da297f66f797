"""Inputs and operations of the three workloads.

Each workload has a ``build(seed)`` that makes its inputs, a pass function
that runs its library operations once over those inputs, and a list of CLI
commands. Calls go through the shewpt module attributes
(``she_solver.solve_newton`` and so on), so the span recorder in
``spans.py`` sees them when it is installed.

Every pass over the same inputs runs the same operations, so a run attempts
whole rounds and its failed share does not depend on the seed or on how
many rounds fit in the run.
"""

from __future__ import annotations

import math

import numpy as np

from refs import BRANCH_TARGETS, TABLE_LINK, load_branches
from shewpt import errors, she_solver, spectrum, transient_sim, waveform, wpt_link

# ---- branches -------------------------------------------------------------

ORACLE_STEP_DEG = 1.0


def build_branches(seed: int) -> dict:
    # the seed fixes the order in which the target sets are solved
    order = np.random.default_rng(seed).permutation(len(BRANCH_TARGETS))
    return {"targets": [BRANCH_TARGETS[i] for i in order]}


def _attempt(op, fn, *args) -> dict:
    """Run one operation; an error it raises makes it a failed operation."""
    try:
        return fn(*args)
    except OP_ERRORS as exc:
        return {"op": op, "error": f"{type(exc).__name__}: {exc}"}


def _multistart(orders) -> dict:
    sols = she_solver.solve_multistart(she_solver.HarmonicTargetSet(orders))
    return {"op": "multistart", "orders": list(orders),
            "branches": [list(s.angle_set.angles) for s in sols]}


def _grid_oracle(orders) -> dict:
    best = she_solver.grid_oracle(she_solver.HarmonicTargetSet(orders), ORACLE_STEP_DEG)
    return {"op": "grid_oracle", "orders": list(orders), "angles": list(best.angles)}


def pass_branches(inputs: dict) -> list[dict]:
    return [_attempt("multistart", _multistart, o) for o in inputs["targets"]] + [
        _attempt("grid_oracle", _grid_oracle, o) for o in inputs["targets"]
    ]


# ---- screen ---------------------------------------------------------------

POLISHES_PER_BRANCH = 3
GUESS_JITTER_DEG = 1.0
RANDOM_LEVELS = tuple(range(5, 16))
BAND = 999
# One random staircase of each level count is analysed at 65536 samples per
# period, whose interval-mean temporaries exceed a 4 MiB L2; every other
# candidate uses the default 8192, which fits.
LARGE_SAMPLES = 65536


def build_screen(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cands = []
    for orders, branches in load_branches().items():
        for branch in branches:
            deg = np.degrees(branch)
            gaps = np.diff(np.concatenate([[0.0], deg, [90.0]]))
            # keep each guess nearer its own branch angle than its neighbours
            reach = np.minimum(GUESS_JITTER_DEG, 0.45 * np.minimum(gaps[:-1], gaps[1:]))
            for _ in range(POLISHES_PER_BRANCH):
                guess = deg + rng.uniform(-1.0, 1.0, len(deg)) * reach
                cands.append({"orders": list(orders), "guess_deg": guess.tolist()})
    for levels in RANDOM_LEVELS:
        for samples in (LARGE_SAMPLES, spectrum.DEFAULT_SAMPLES_PER_PERIOD):
            while True:
                deg = np.sort(rng.uniform(0.5, 89.5, levels))
                if np.min(np.diff(deg)) > 0.5:
                    break
            cands.append({"orders": [], "angles_deg": deg.tolist(), "samples": samples})
    # shuffle so that solved and random candidates mix in the stream
    cands = [cands[i] for i in rng.permutation(len(cands))]
    for c in cands:
        c["step_voltage"] = float(rng.uniform(100.0, 600.0))
        c["f1"] = float(rng.uniform(20e3, 100e3))
        c.setdefault("samples", spectrum.DEFAULT_SAMPLES_PER_PERIOD)
    return {"candidates": cands}


def _candidate(c: dict) -> dict:
    if c["orders"]:
        targets = she_solver.HarmonicTargetSet(c["orders"])
        sol = she_solver.solve_newton(waveform.AngleSet.from_degrees(c["guess_deg"]), targets)
        angles = sol.angle_set
    else:
        angles = waveform.AngleSet.from_degrees(c["angles_deg"])
    w = waveform.synth(angles, c["step_voltage"], c["f1"])
    rep = spectrum.thd_report(
        w, eliminated_orders=c["orders"], band_total=BAND, samples_per_period=c["samples"]
    )
    spec = spectrum.analytic_spectrum(angles, c["step_voltage"], c["f1"], BAND)
    return {
        "op": "candidate", "orders": c["orders"], "angles": list(angles.angles),
        "step_voltage": c["step_voltage"], "samples": c["samples"],
        "thd_total": rep.thd_total, "thd_21": rep.thd_21, "thd_band": rep.thd_band,
        "eliminated_max_rel": rep.eliminated_orders_max_relative,
        "analytic": spec.amplitudes.tolist(),
        "fundamental_rms": waveform.fundamental_rms(angles, c["step_voltage"]),
        "total_rms": waveform.total_rms(angles, c["step_voltage"]),
    }


def pass_screen(inputs: dict) -> list[dict]:
    return [_attempt("candidate", _candidate, c) for c in inputs["candidates"]]


# ---- link -----------------------------------------------------------------

LINK_BASE = {name: TABLE_LINK[name] for name in ("L1", "L2", "C1", "C2", "f_s")}
SHE_DRIVE_ORDERS = (3, 5, 7)
SHE_DRIVE_BRANCH = 1  # the branch near (12, 42, 86) degrees used by the 3-cell drive
# Operating points (R_load_dc, k, drive): R_load_dc log-spaced over
# 5..5000 ohm (24 values, two points each), k from the golden-ratio
# sequence over 0.1..0.5, square and staircase drives alternating, plus the
# 2000 ohm table-link case. Whether the 60-cycle transient misses the steady
# state depends on R_load_dc and k, and near the edge of that region it
# changes sign with them, so they stay fixed: the seed draws V_dc, which
# scales every power alike. One k (136 ohm, staircase) was moved from 0.186
# to 0.206 so that its transient error is not within a factor 2 of the
# tolerance.
LINK_POINTS = (
    (5.0, 0.1, "square"), (5.0, 0.347, "staircase"),
    (6.75, 0.194, "square"), (6.75, 0.442, "staircase"),
    (9.12, 0.289, "square"), (9.12, 0.136, "staircase"),
    (12.31, 0.383, "square"), (12.31, 0.23, "staircase"),
    (16.62, 0.478, "square"), (16.62, 0.325, "staircase"),
    (22.45, 0.172, "square"), (22.45, 0.419, "staircase"),
    (30.31, 0.267, "square"), (30.31, 0.114, "staircase"),
    (40.93, 0.361, "square"), (40.93, 0.208, "staircase"),
    (55.26, 0.455, "square"), (55.26, 0.303, "staircase"),
    (74.62, 0.15, "square"), (74.62, 0.397, "staircase"),
    (100.77, 0.244, "square"), (100.77, 0.491, "staircase"),
    (136.07, 0.339, "square"), (136.07, 0.206, "staircase"),
    (183.73, 0.433, "square"), (183.73, 0.28, "staircase"),
    (248.1, 0.128, "square"), (248.1, 0.375, "staircase"),
    (335.01, 0.222, "square"), (335.01, 0.469, "staircase"),
    (452.37, 0.316, "square"), (452.37, 0.164, "staircase"),
    (610.84, 0.411, "square"), (610.84, 0.258, "staircase"),
    (824.82, 0.105, "square"), (824.82, 0.352, "staircase"),
    (1113.77, 0.2, "square"), (1113.77, 0.447, "staircase"),
    (1503.94, 0.294, "square"), (1503.94, 0.141, "staircase"),
    (2000.0, 0.309, "square"),
    (2030.79, 0.389, "square"), (2030.79, 0.236, "staircase"),
    (2742.21, 0.483, "square"), (2742.21, 0.33, "staircase"),
    (3702.84, 0.177, "square"), (3702.84, 0.425, "staircase"),
    (5000.0, 0.272, "square"), (5000.0, 0.119, "staircase"),
)


def build_link(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    she = load_branches()[SHE_DRIVE_ORDERS][SHE_DRIVE_BRANCH].tolist()
    points = []
    for r_load, k, drive in LINK_POINTS:
        point = dict(LINK_BASE, R_load_dc=r_load, k=k, V_dc=float(rng.uniform(50.0, 150.0)),
                     drive=drive)
        if drive == "staircase":
            point["angles"] = she
        points.append(point)
    return {"points": points}


def link_params(point: dict) -> wpt_link.WptLinkParams:
    return wpt_link.WptLinkParams(
        L1=point["L1"], L2=point["L2"], C1=point["C1"], C2=point["C2"], k=point["k"],
        R_load_dc=point["R_load_dc"], V_dc=point["V_dc"], f_s=point["f_s"],
    )


def _operating_point(point: dict) -> dict:
    params = link_params(point)
    if point["drive"] == "square":
        drive = transient_sim.SquareDrive(amplitude=params.V_dc, frequency=params.f_s)
    else:
        # three cells of V_dc / 3 each: the staircase peak is V_dc
        drive = waveform.synth(waveform.AngleSet(tuple(point["angles"])), params.V_dc / 3, params.f_s)
    fha = wpt_link.fha_solve(params)
    trace = transient_sim.simulate(params, drive)
    metrics = transient_sim.steady_state_metrics(trace, params)
    balance = transient_sim.energy_balance_residual(trace, params, params.r_ac)
    return {
        "op": "operating_point", "fha_P_out": fha.P_out, "P_out": metrics.P_out,
        "r_ac": params.r_ac, "energy_balance": balance,
        "steps_per_cycle": trace.steps_per_cycle,
    }


def pass_link(inputs: dict) -> list[dict]:
    return [_attempt("operating_point", _operating_point, p) for p in inputs["points"]]


# ---- CLI commands ---------------------------------------------------------

# the paper's 3-cell and 4-cell designs: (orders, branch index, step voltage)
DESIGNS = (((3, 5, 7), 1, "500"), ((3, 5, 7, 9), 1, "375"))


def _design_angles(orders, index) -> str:
    return ",".join(repr(math.degrees(a)) for a in load_branches()[orders][index])


CLI_COMMANDS = {
    "branches": [["solve", "--harmonics", "5,7,11", "--multistart"]],
    "screen": [
        cmd
        for orders, index, volts in DESIGNS
        for cmd in (
            ["synth", "--angles-deg", _design_angles(orders, index), "--step-voltage", volts],
            ["synth", "--angles-deg", _design_angles(orders, index), "--step-voltage", volts,
             "--samples", "65536"],
            ["spectrum", "--angles-deg", _design_angles(orders, index), "--step-voltage", volts,
             "--eliminated", ",".join(map(str, orders)), "--n-max", "99"],
        )
    ],
    "link": [["wpt", "--mode", "transient"], ["reproduce", "--case", "all"]],
}

# files whose content the benchmark checks after each CLI command
CLI_OUTPUTS = {"solve": "she_solution.json", "spectrum": "thd_report.json",
               "wpt": "wpt_report.json", "reproduce": "reproduce_report.json"}

# passes and CLI sets in one round: each timing gets several samples per
# run, and every round attempts the same operations
ROUND = {"branches": (1, 3), "screen": (1, 1), "link": (1, 1)}

WORKLOADS = {
    "branches": (build_branches, pass_branches),
    "screen": (build_screen, pass_screen),
    "link": (build_link, pass_link),
}

# exceptions an operation may raise on bad input or non-convergence; any
# of them makes that operation count as failed
OP_ERRORS = (
    errors.ValidationError, errors.DivergenceError, errors.NonConvergenceError,
    errors.SingularMatrixError, errors.UndefinedThdError,
)
