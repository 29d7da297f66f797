"""Branch completeness of solve_multistart, proved by interval subdivision.

A Krawczyk subdivision decides, box by box, whether a box of angles holds
no root of F_k(theta) = sum_i cos(n_k theta_i) or exactly one (Krawczyk,
"Newton-Algorithmen zur Bestimmung von Nullstellen mit Fehlerschranken",
Computing 4, 1969; Moore, "Methods and Applications of Interval Analysis",
SIAM, 1979; Rump, "Verification methods: rigorous results using
floating-point arithmetic", Acta Numerica 19, 2010). For a box X with a
point y in it, any matrix C and an enclosure J(X) of the Jacobian over X,

    K(X) = y - C F(y) + (I - C J(X)) (X - y)

holds every root in X. So X holds none if K(X) misses X, or if the
enclosure F(X) misses 0; and if K(X) lies in the interior of X, then C and
every matrix of J(X) are regular and X holds exactly one root. Any other box
is bisected along its widest side, down to a width of WIDTH_FLOOR.

The subdivision starts from the one box [0, pi/2]^K and cuts every box to
the ascending cone theta_1 <= ... <= theta_K: each lower end is raised to
the one before it, and each upper end lowered to the one after it. A
verified box then holds an ascending root: were its root theta_i >
theta_{i+1}, the swap of the two would lie in the box too (the cut makes
lo_i <= lo_{i+1} and hi_i <= hi_{i+1}) and be a second root. And that root
has distinct angles, because J is singular where two angles are equal.

Rigour. Every computed bound is widened so that it encloses the exact
range; with u = 2^-53 and gamma_n = n u / (1 - n u) (Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., 2002, 3.1):
- n theta is computed within u n theta of its value, and np.cos and np.sin
  are taken as accurate to 4 ulps of 1 (TRIG_ERR); since both have slope at
  most 1, a trigonometric value is widened by 2 u n theta + TRIG_ERR. An
  interval that may hold an extremum, within a slack far above the rounding
  of (t - phase) / pi, takes +1 or -1 there.
- A float sum of n terms, in any order, is within gamma_{n-1} of the sum of
  their magnitudes; a product of two floats is within u of its own. So a sum
  of n products (C F(y), C J(X), (I - C J(X)) (X - y), each entry's range by
  its four corner products) is widened by gamma_{n+1} of the sum of its
  magnitudes, which also covers the rounding of that bound.
- Every widened bound is moved one ulp outward (np.nextafter), which covers
  the rounding of the widening itself and of single operations such as
  X - y and I - C J(X).
The result therefore rests on np.cos and np.sin being accurate to those
ulps, and on round-to-nearest float64 arithmetic.

Roots with an angle at pi/2 are not isolated in [0, pi/2]^K: cos(n pi/2) = 0
for every odd n, so such a root sits on the face of every box around it
(and pi/2 in float64 lies 6e-17 below pi/2). Its boxes stay undecided at the
width floor. Multistart drops those roots as "on the bounds".
"""

import numpy as np
import pytest

from shewpt import HarmonicTargetSet, solve_multistart

U = 2.0**-53
TRIG_ERR = 8 * U  # 4 ulps of 1
EXTREMUM_SLACK = 1e-6
WIDTH_FLOOR = 1e-9
BOX_CAP = 100_000
HALF_PI = np.pi / 2


def _gamma(n):
    return n * U / (1 - n * U)


def _widen(lo, hi, err):
    """[lo - err, hi + err], each end one ulp further out."""
    return np.nextafter(lo - err, -np.inf), np.nextafter(hi + err, np.inf)


def _sum(lo, hi, axis):
    """Enclosure of the sum of intervals along ``axis``."""
    mag = np.maximum(np.abs(lo), np.abs(hi)).sum(axis)
    return _widen(lo.sum(axis), hi.sum(axis), _gamma(lo.shape[axis] + 1) * mag)


def _matmul(a_lo, a_hi, b_lo, b_hi):
    """Enclosure of the interval matrix products of stacks (N, K, J) and (N, J, M)."""
    a_lo, a_hi = a_lo[..., :, :, None], a_hi[..., :, :, None]
    b_lo, b_hi = b_lo[..., None, :, :], b_hi[..., None, :, :]
    corners = np.stack([a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi])
    return _sum(corners.min(axis=0), corners.max(axis=0), axis=-2)


def _trig_range(func, phase, t_lo, t_hi):
    """Enclosure of ``func`` (np.cos with phase 0, np.sin with phase pi/2)
    over each [t_lo, t_hi] of computed n theta: its extremes are +1 at
    phase + 2 j pi and -1 at phase + (2 j + 1) pi."""
    a, b = func(t_lo), func(t_hi)
    lo, hi = _widen(np.minimum(a, b), np.maximum(a, b), 2 * U * t_hi + TRIG_ERR)
    first = np.ceil((t_lo - phase) / np.pi - EXTREMUM_SLACK)
    last = np.floor((t_hi - phase) / np.pi + EXTREMUM_SLACK)
    hit, both, even = first <= last, last > first, first % 2 == 0
    return np.where(hit & (~even | both), -1.0, lo), np.where(hit & (even | both), 1.0, hi)


def _classify(lo, hi, orders):
    """(excluded, verified) for each box of the stack (N, K)."""
    n = orders[:, None]
    t_lo, t_hi = n * lo[:, None, :], n * hi[:, None, :]  # (N, K orders, K angles)
    f_lo, f_hi = _sum(*_trig_range(np.cos, 0.0, t_lo, t_hi), axis=-1)
    s_lo, s_hi = _trig_range(np.sin, HALF_PI, t_lo, t_hi)
    j_lo, j_hi = _widen(-n * s_hi, -n * s_lo, 2 * U * n)

    y = (lo + hi) / 2  # inside each box
    t = n * y[:, None, :]
    c = np.cos(t)
    fy_lo, fy_hi = _sum(*_widen(c, c, 2 * U * t + TRIG_ERR), axis=-1)
    # C only needs to be near the inverse; pinv takes the singular J(y) of
    # a midpoint with equal angles
    inv = np.linalg.pinv(-n * np.sin(t))
    cf_lo, cf_hi = _matmul(inv, inv, fy_lo[..., None], fy_hi[..., None])
    cj_lo, cj_hi = _matmul(inv, inv, j_lo, j_hi)
    eye = np.eye(len(orders))
    m_lo, m_hi = _widen(eye - cj_hi, eye - cj_lo, 0.0)
    d_lo, d_hi = _widen(lo - y, hi - y, 0.0)
    md_lo, md_hi = _matmul(m_lo, m_hi, d_lo[..., None], d_hi[..., None])
    k_lo, k_hi = _sum(
        np.stack([y, -cf_hi[..., 0], md_lo[..., 0]]),
        np.stack([y, -cf_lo[..., 0], md_hi[..., 0]]),
        axis=0,
    )
    excluded = ((f_lo > 0) | (f_hi < 0) | (k_lo > hi) | (k_hi < lo)).any(axis=1)
    verified = ~excluded & ((k_lo > lo) & (k_hi < hi)).all(axis=1)
    return excluded, verified


def _cut_to_cone(lo, hi):
    """The boxes cut to theta_1 <= ... <= theta_K; the empty ones dropped."""
    lo = np.maximum.accumulate(lo, axis=1)
    hi = np.minimum.accumulate(hi[:, ::-1], axis=1)[:, ::-1]
    keep = (lo <= hi).all(axis=1)
    return lo[keep], hi[keep]


def subdivide(orders, cap=BOX_CAP):
    """The verified boxes and the boxes undecided at the width floor, each a
    (lo, hi) pair of stacks, and the number of boxes decided. Fails past
    ``cap`` boxes."""
    orders = np.asarray(orders, dtype=float)
    k = len(orders)
    lo, hi = np.zeros((1, k)), np.full((1, k), HALF_PI)
    verified, undecided = [], []
    boxes = 0
    while len(lo):
        boxes += len(lo)
        if boxes > cap:
            raise AssertionError(f"subdivision of {orders} passed the cap of {cap} boxes")
        excluded, ok = _classify(lo, hi, orders)
        verified.append((lo[ok], hi[ok]))
        open_ = ~excluded & ~ok
        lo, hi = lo[open_], hi[open_]
        floor = (hi - lo).max(axis=1) < WIDTH_FLOOR
        undecided.append((lo[floor], hi[floor]))
        lo, hi = lo[~floor], hi[~floor]
        # bisect each box along its widest side
        rows = np.arange(len(lo))
        side = np.argmax(hi - lo, axis=1)
        mid = (lo[rows, side] + hi[rows, side]) / 2
        lower_hi, upper_lo = hi.copy(), lo.copy()
        lower_hi[rows, side] = mid
        upper_lo[rows, side] = mid
        lo, hi = _cut_to_cone(np.concatenate([lo, upper_lo]), np.concatenate([lower_hi, hi]))
    return _stack(verified), _stack(undecided), boxes


def _stack(parts):
    """One (lo, hi) pair of stacks from a list of them."""
    return tuple(np.concatenate(side) for side in zip(*parts))


# the four sets of the benchmark's branches workload, and two more
SETS = [(3, 5, 7), (3, 5, 7, 9), (5, 7, 11), (5, 7, 11, 13), (3, 7, 9), (11, 13, 15)]


@pytest.mark.parametrize("orders", SETS, ids=[",".join(map(str, o)) for o in SETS])
def test_multistart_branches_are_the_verified_roots(orders):
    (v_lo, v_hi), (u_lo, u_hi), boxes = subdivide(orders)
    branches = np.array([s.angle_set.angles for s in solve_multistart(HarmonicTargetSet(orders))])
    inside = ((branches[:, None] >= v_lo) & (branches[:, None] <= v_hi)).all(axis=-1)
    # every branch lies in exactly one verified box, and every verified box
    # holds exactly one branch: the lattice missed no isolated root
    assert (inside.sum(axis=1) == 1).all()
    assert (inside.sum(axis=0) == 1).all()
    # every box left undecided touches pi/2, where multistart drops roots
    assert (u_hi[:, -1] == HALF_PI).all()
    assert boxes < BOX_CAP


def test_subdivision_fails_loudly_past_its_cap():
    with pytest.raises(AssertionError, match="cap of 50 boxes"):
        subdivide((3, 5, 7), cap=50)


@pytest.mark.parametrize("func, phase", [(np.cos, 0.0), (np.sin, HALF_PI)], ids=["cos", "sin"])
def test_trig_ranges_enclose_dense_samples(func, phase):
    rng = np.random.default_rng(5)
    t_lo = rng.uniform(0.0, 40.0, 2000)
    t_hi = t_lo + rng.choice([1e-9, 1e-3, 0.5, 4.0], 2000)
    lo, hi = _trig_range(func, phase, t_lo, t_hi)
    samples = func(np.linspace(t_lo, t_hi, 401))
    assert (samples >= lo).all() and (samples <= hi).all()
    assert (hi - lo <= 2.0 + 1e-12).all()
