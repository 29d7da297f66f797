"""Quick check of the benchmark's reference computations (about a second).

    python3 bench/selfcheck.py

1. On the table link (85 kHz, k = 0.309, 50 ohm, 100 V square drive) the
   exact steady state of refs.py and shewpt's ``fha_solve`` agree within
   0.1 %, and the exact steady state matches a sum over the harmonic
   phasors of the square wave within 1e-9.
2. The scipy root search finds the 3-level branch
   (11.991979, 41.927883, 85.674771) degrees, and the stored branch set
   holds it.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import refs  # noqa: E402

BRANCH_3LEVEL_DEG = (11.991979, 41.927883, 85.674771)


def harmonic_sum_power(link, v_dc, r_ac, n_max=20001) -> float:
    """Output power of the square-wave drive as a sum over its odd harmonics."""
    n = np.arange(1, n_max + 1, 2)
    w = 2 * math.pi * link["f_s"] * n
    m = link["k"] * math.sqrt(link["L1"] * link["L2"])
    z11 = 1j * (w * link["L1"] - 1 / (w * link["C1"]))
    z22 = r_ac + 1j * (w * link["L2"] - 1 / (w * link["C2"]))
    v = 4 * v_dc / (math.pi * n)  # peak amplitude of harmonic n
    i2 = -1j * w * m * v / (z11 * z22 + (w * m) ** 2)
    return float(np.sum(np.abs(i2) ** 2) * r_ac / 2)


def main() -> int:
    from shewpt.wpt_link import WptLinkParams, fha_solve

    ok = True
    link = refs.TABLE_LINK
    r_ac = 8 * link["R_load_dc"] / math.pi**2
    exact = refs.exact_steady_state(link, {"kind": "square", "amplitude": link["V_dc"]}, r_ac)["P_out"]
    fha = fha_solve(WptLinkParams(**link)).P_out
    phasors = harmonic_sum_power(link, link["V_dc"], r_ac)
    gap_fha = abs(exact - fha) / exact
    gap_sum = abs(exact - phasors) / exact
    print(f"table link: exact {exact:.6f} W, fha_solve {fha:.6f} W ({gap_fha:.2e}), "
          f"harmonic sum {phasors:.6f} W ({gap_sum:.2e})")
    ok &= gap_fha < 1e-3 and gap_sum < 1e-9

    want = np.radians(BRANCH_3LEVEL_DEG)
    found = refs.root_branches((3, 5, 7), starts=400)
    stored = refs.load_branches()[(3, 5, 7)]
    hit = any(np.max(np.abs(np.asarray(b) - want)) < math.radians(1e-6) for b in found)
    kept = any(np.max(np.abs(b - want)) < math.radians(1e-6) for b in stored)
    print(f"3-level branch {BRANCH_3LEVEL_DEG}: root search {'finds' if hit else 'misses'} it, "
          f"stored set {'holds' if kept else 'lacks'} it ({len(found)} branches found)")
    ok &= hit and kept
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
