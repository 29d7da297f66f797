"""Reference computations made apart from shewpt.

Nothing here imports shewpt. The benchmark compares the program's outputs
with these:

- ``root_branches``: the SHE branch set of a harmonic target set, found by
  ``scipy.optimize.root`` from seeded random starts and deduplicated at
  0.01 degrees.
- ``fourier_amplitudes`` / ``series_mean_square``: the staircase Fourier
  series, and its mean square by Parseval's identity with a closed-form
  bound on the orders left out, summed here.
- ``exact_steady_state``: the periodic steady state of the linear
  series-series tank, by shooting (Aprille & Trick, Proc. IEEE 60(1), 1972):
  the matrix exponential is chained over each constant-drive segment and
  (I - P) x = q is solved for the state at the start of the period. Cycle
  integrals of the squared currents come from Van Loan's block exponential.

Run ``python3 bench/refs.py`` to regenerate ``bench/data/branches.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# scipy is imported inside the functions that need it, so that the worker
# can import the shared constants below without loading it

HERE = Path(__file__).resolve().parent
BRANCHES_FILE = HERE / "data" / "branches.json"

# target sets of the branches workload, and the random starts per set
BRANCH_TARGETS = ((3, 5, 7), (3, 5, 7, 9), (5, 7, 11), (5, 7, 11, 13))
# the table link: 85 kHz series-series tank, 50 ohm load, 100 V drive
TABLE_LINK = {"L1": 245e-6, "L2": 245e-6, "C1": 14e-9, "C2": 14e-9, "k": 0.309,
              "R_load_dc": 50.0, "V_dc": 100.0, "f_s": 85e3}
ROOT_STARTS = 4000
ROOT_SEED = 20240517
DEDUP_DEG = 0.01
# a root this close to 0 or pi/2, or with two angles this close, is a
# degenerate staircase (a layer that never switches, or two merged layers)
DEGENERATE_RAD = 1e-6


# ---- SHE branches ---------------------------------------------------------


def she_residual(theta, orders) -> np.ndarray:
    n = np.asarray(orders, dtype=float)
    return np.cos(np.outer(n, theta)).sum(axis=1)


def _she_jacobian(theta, orders) -> np.ndarray:
    n = np.asarray(orders, dtype=float)
    return -n[:, None] * np.sin(np.outer(n, theta))


def root_branches(orders, starts=ROOT_STARTS, seed=ROOT_SEED) -> list[list[float]]:
    """Distinct non-degenerate roots in (0, pi/2), sorted by first angle (rad)."""
    import scipy.optimize

    rng = np.random.default_rng(seed)
    k = len(orders)
    found: list[np.ndarray] = []
    for _ in range(starts):
        x0 = np.sort(rng.uniform(0.0, math.pi / 2, k))
        sol = scipy.optimize.root(
            she_residual, x0, args=(orders,), jac=_she_jacobian, method="hybr",
            options={"xtol": 1e-14},
        )
        x = np.sort(sol.x)
        if not np.all(np.isfinite(x)) or np.max(np.abs(she_residual(x, orders))) > 1e-10:
            continue
        gaps = np.diff(np.concatenate([[0.0], x, [math.pi / 2]]))
        if np.min(gaps) < DEGENERATE_RAD:
            continue
        if any(np.max(np.abs(x - f)) < math.radians(DEDUP_DEG) for f in found):
            continue
        found.append(x)
    found.sort(key=lambda x: x[0])
    return [x.tolist() for x in found]


def load_branches() -> dict[tuple[int, ...], list[np.ndarray]]:
    with open(BRANCHES_FILE) as fh:
        data = json.load(fh)
    return {
        tuple(entry["orders"]): [np.asarray(b) for b in entry["branches_rad"]]
        for entry in data["sets"]
    }


def same_branch_set(got, ref, tol_deg=DEDUP_DEG) -> bool:
    """Every branch of ``got`` matches one of ``ref`` and vice versa."""
    tol = math.radians(tol_deg)

    def covered(a, b):
        return all(any(np.max(np.abs(np.asarray(x) - y)) < tol for y in b) for x in a)

    return len(got) == len(ref) and covered(got, ref) and covered(ref, got)


# ---- staircase spectrum ---------------------------------------------------


def fourier_amplitudes(theta, step_voltage, n_max) -> np.ndarray:
    """|b_n| for n = 0..n_max (index 0 unused): 4V/(n pi) |sum cos(n theta)|, odd n."""
    n = np.arange(1, n_max + 1)
    sums = np.cos(np.outer(n, theta)).sum(axis=1)
    amps = np.zeros(n_max + 1)
    amps[1:] = np.where(n % 2 == 1, 4.0 * step_voltage / (n * math.pi) * np.abs(sums), 0.0)
    return amps


def series_mean_square(theta, step_voltage, n_max) -> tuple[float, float]:
    """Mean square of the staircase by Parseval's identity: (partial sum, tail bound).

    The mean square is sum b_n^2 / 2 over the odd orders. The partial sum
    runs over n <= n_max (odd). Every |b_n| is at most 4 V K / (n pi), and
    for odd n, 1/n^2 <= (1/2) * integral of x^-2 over (n - 2, n), so the
    orders above n_max add at most (4 V K / pi)^2 / 2 * 1 / (2 n_max).
    """
    n = np.arange(1, n_max + 1, 2, dtype=float)
    b = 4.0 * step_voltage / (n * math.pi) * np.cos(np.outer(n, theta)).sum(axis=1)
    peak = 4.0 * step_voltage * len(theta) / math.pi
    return float(np.sum(b**2)) / 2.0, peak**2 / 2.0 / (2.0 * n_max)


def alias_factor(n_max, samples) -> np.ndarray:
    """n * sum_{m != 0} 1 / (n + m N)^2 for n = 0..n_max, N = samples."""
    n = np.arange(n_max + 1, dtype=float)
    m = np.arange(1, 2001, dtype=float)
    tail = 2.0 / (2000.0 * samples**2)  # the terms beyond |m| = 2000, both signs
    s = (
        np.sum(1.0 / (n[:, None] + m[None, :] * samples) ** 2, axis=1)
        + np.sum(1.0 / (n[:, None] - m[None, :] * samples) ** 2, axis=1)
        + tail
    )
    return n * s


def alias_bound(theta, step_voltage, factor) -> np.ndarray:
    """Bound on the hold-corrected interval-mean DFT error of each order.

    Bin n of the interval means holds harmonic n plus the aliases n + mN,
    each scaled by the hold-factor ratio n / |n + mN|. The staircase
    amplitudes are at most 4 V K / (pi j), so the error of order n is at
    most (4 V K / pi) * n * sum_{m != 0} 1 / (n + mN)^2, which is O(n / N^2);
    ``factor`` is the last product, from ``alias_factor``.
    """
    return 4.0 * step_voltage * len(theta) / math.pi * factor


def thd_error_bound(amps, bound, n_hi) -> float:
    """Bound on |THD(amps + e) - THD(amps)| over orders 2..n_hi when |e_n| <= bound_n."""
    num = math.sqrt(float(np.sum(amps[2 : n_hi + 1] ** 2)))
    num_err = math.sqrt(float(np.sum(bound[2 : n_hi + 1] ** 2)))
    a1, e1 = amps[1], bound[1]
    return (num_err + num / a1 * e1) / (a1 - e1)


# ---- link steady state ----------------------------------------------------


def tank_matrices(link: dict, r_ac: float):
    """x = (i1, i2, vC1, vC2); dx/dt = A x + b v from the two mesh equations."""
    l1, l2, c1, c2, k = link["L1"], link["L2"], link["C1"], link["C2"], link["k"]
    m = k * math.sqrt(l1 * l2)
    r1, r2 = link.get("R1", 0.0), link.get("R2", 0.0) + r_ac
    det = l1 * l2 - m * m
    # [L1 M; M L2]^-1 written out
    g = np.array([[l2, -m], [-m, l1]]) / det
    a = np.zeros((4, 4))
    a[:2, :2] = g @ np.diag([-r1, -r2])
    a[:2, 2:] = -g
    a[2, 0] = 1.0 / c1
    a[3, 1] = 1.0 / c2
    b = np.zeros(4)
    b[:2] = g[:, 0]
    return a, b


def drive_segments(drive: dict, f_s: float):
    """(duration_s, volts) pieces of one period of a square or staircase drive."""
    period = 1.0 / f_s
    if drive["kind"] == "square":
        v = drive["amplitude"]
        return [(period / 2, v), (period / 2, -v)]
    theta = np.asarray(drive["angles_rad"])
    step = drive["step_voltage"]
    edges = np.concatenate([theta, math.pi - theta])
    edges = np.sort(np.concatenate([[0.0], edges, math.pi + edges, [2 * math.pi]]))
    segs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 0.0:
            continue
        mid = 0.5 * (lo + hi)
        half = mid % math.pi
        sign = 1.0 if mid < math.pi else -1.0
        count = int(np.sum((theta < half) & (half < math.pi - theta)))
        segs.append(((hi - lo) / (2 * math.pi) * period, sign * count * step))
    return segs


def _segment_maps(a, b, v, tau):
    """Sub-step maps of one constant-drive segment.

    Returns (E, G1, G2, n): over each of the n equal sub-steps the augmented
    state z = (x, 1) maps as z -> E z, and the integrals of i1^2 and i2^2 are
    z^T G1 z and z^T G2 z. Sub-steps keep ||A h|| <= 1 so that the Van Loan
    block exponential stays well conditioned on heavily damped links.
    """
    import scipy.linalg

    n = max(1, math.ceil(np.linalg.norm(a, 1) * tau))
    h = tau / n
    at = np.zeros((5, 5))
    at[:4, :4] = a
    at[:4, 4] = b * v
    grams = []
    for idx in (0, 1):
        q = np.zeros((5, 5))
        q[idx, idx] = 1.0
        c = np.zeros((10, 10))
        c[:5, :5] = -at.T
        c[:5, 5:] = q
        c[5:, 5:] = at
        f = scipy.linalg.expm(c * h)
        e = f[5:, 5:]
        grams.append(e.T @ f[:5, 5:])
    return e, grams[0], grams[1], n


def exact_steady_state(link: dict, drive: dict, r_ac: float) -> dict:
    """Exact periodic steady state of the tank: P_out, RMS currents, rho(P)."""
    a, b = tank_matrices(link, r_ac)
    period = 1.0 / link["f_s"]
    maps = [_segment_maps(a, b, v, tau) for tau, v in drive_segments(drive, link["f_s"])]
    cycle = np.eye(5)
    for e, _, _, n in maps:
        cycle = np.linalg.matrix_power(e, n) @ cycle
    p, q = cycle[:4, :4], cycle[:4, 4]
    x = np.linalg.solve(np.eye(4) - p, q)
    z = np.append(x, 1.0)
    int1 = int2 = 0.0
    for e, g1, g2, n in maps:
        for _ in range(n):
            int1 += z @ g1 @ z
            int2 += z @ g2 @ z
            z = e @ z
    mean_i1_sq, mean_i2_sq = int1 / period, int2 / period
    return {
        "P_out": mean_i2_sq * r_ac,
        "I1_rms": math.sqrt(mean_i1_sq),
        "I2_rms": math.sqrt(mean_i2_sq),
        "rho": float(np.max(np.abs(np.linalg.eigvals(p)))),
        "x0": x,
    }


def main() -> int:
    sets = []
    for orders in BRANCH_TARGETS:
        branches = root_branches(orders)
        sets.append({"orders": list(orders), "branches_rad": branches})
        print(f"{orders}: {len(branches)} branches")
    BRANCHES_FILE.parent.mkdir(exist_ok=True)
    with open(BRANCHES_FILE, "w") as fh:
        json.dump(
            {"method": "scipy.optimize.root (hybr)", "starts": ROOT_STARTS,
             "seed": ROOT_SEED, "dedup_deg": DEDUP_DEG, "sets": sets},
            fh, indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
